/**
 * @file
 * Sample summaries for characterization results: streaming mean and
 * exact box-and-whiskers statistics as used by the paper's figures.
 */

#ifndef FCDRAM_STATS_SUMMARY_HH
#define FCDRAM_STATS_SUMMARY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace fcdram {

/**
 * Box-and-whiskers summary of a sample set: min, first quartile, median,
 * third quartile, max, and mean. Matches the plot convention of the
 * paper (whiskers at min/max, footnote 5).
 */
struct BoxStats
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    std::size_t count = 0;

    /** Interquartile range (box size). */
    double iqr() const { return q3 - q1; }

    /** Compact "mean [min q1 med q3 max]" rendering for bench output. */
    std::string toString(int precision = 2) const;
};

/**
 * Accumulates double samples and produces summary statistics. Stores
 * the samples (needed for exact quantiles over per-cell success rates).
 */
class SampleSet
{
  public:
    SampleSet() = default;

    /** Append one sample. */
    void add(double value);

    /** Append all samples of another set. */
    void merge(const SampleSet &other);

    /** Append by stealing the other set's samples when possible. */
    void merge(SampleSet &&other);

    /** Number of samples. */
    std::size_t count() const { return values_.size(); }

    bool empty() const { return values_.empty(); }

    /** Arithmetic mean. @pre !empty() */
    double mean() const;

    /** Minimum. @pre !empty() */
    double min() const;

    /** Maximum. @pre !empty() */
    double max() const;

    /** Interpolated quantile q in [0,1]. @pre !empty() */
    double quantile(double q) const;

    /** Full box-and-whiskers summary. @pre !empty() */
    BoxStats box() const;

    /** Read-only access to raw samples. */
    const std::vector<double> &values() const { return values_; }

  private:
    void ensureSorted() const;

    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
};

/**
 * Mean of a value stream folded in order from buffered chunks, for
 * figures that report only means. A task's partial buffers the values
 * it adds; mergeFrom() folds another partial's buffer into a running
 * sum one value at a time and frees it. As long as partials are folded
 * in stream order, mean() equals SampleSet::mean() over the same
 * sequence bit for bit (a left-to-right sum from 0.0, divided by the
 * count), while only unfolded partials hold values.
 */
class RunningMean
{
  public:
    /** Buffer one value. */
    void add(double value) { pending_.push_back(value); }

    /**
     * Fold this accumulator's buffer, then @p other's, into the sum,
     * and release @p other's buffer.
     * @pre other has folded nothing itself (it is a task partial).
     */
    void mergeFrom(RunningMean &&other);

    /** Number of values, folded or buffered. */
    std::size_t count() const { return count_ + pending_.size(); }

    bool empty() const { return count() == 0; }

    /** Arithmetic mean. @pre !empty() */
    double mean() const;

  private:
    /** Add @p values to the sum in order. */
    void fold(const std::vector<double> &values);

    std::vector<double> pending_;
    double sum_ = 0.0;
    std::size_t count_ = 0;
};

} // namespace fcdram

#endif // FCDRAM_STATS_SUMMARY_HH
