#include "stats/summary.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/mathutil.hh"
#include "common/table.hh"

namespace fcdram {

std::string
BoxStats::toString(int precision) const
{
    return formatDouble(mean, precision) + " [" +
           formatDouble(min, precision) + " " +
           formatDouble(q1, precision) + " " +
           formatDouble(median, precision) + " " +
           formatDouble(q3, precision) + " " +
           formatDouble(max, precision) + "]";
}

void
SampleSet::add(double value)
{
    values_.push_back(value);
    sortedValid_ = false;
}

void
SampleSet::merge(const SampleSet &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    sortedValid_ = false;
}

void
SampleSet::merge(SampleSet &&other)
{
    if (values_.empty())
        values_ = std::move(other.values_);
    else
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
    sortedValid_ = false;
}

double
SampleSet::mean() const
{
    return meanOf(values_);
}

double
SampleSet::min() const
{
    assert(!values_.empty());
    return *std::min_element(values_.begin(), values_.end());
}

double
SampleSet::max() const
{
    assert(!values_.empty());
    return *std::max_element(values_.begin(), values_.end());
}

double
SampleSet::quantile(double q) const
{
    ensureSorted();
    return quantileSorted(sorted_, q);
}

BoxStats
SampleSet::box() const
{
    assert(!values_.empty());
    ensureSorted();
    BoxStats stats;
    stats.min = sorted_.front();
    stats.q1 = quantileSorted(sorted_, 0.25);
    stats.median = quantileSorted(sorted_, 0.5);
    stats.q3 = quantileSorted(sorted_, 0.75);
    stats.max = sorted_.back();
    stats.mean = mean();
    stats.count = values_.size();
    return stats;
}

void
SampleSet::ensureSorted() const
{
    if (!sortedValid_) {
        sorted_ = values_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
}

void
RunningMean::fold(const std::vector<double> &values)
{
    for (const double value : values)
        sum_ += value;
    count_ += values.size();
}

void
RunningMean::mergeFrom(RunningMean &&other)
{
    assert(other.count_ == 0);
    fold(pending_);
    pending_ = {};
    fold(other.pending_);
    other.pending_ = {};
}

double
RunningMean::mean() const
{
    assert(!empty());
    double sum = sum_;
    for (const double value : pending_)
        sum += value;
    return sum / static_cast<double>(count());
}

} // namespace fcdram
