/**
 * @file
 * Open-bitline topology: which sense-amplifier stripe serves which
 * column of which subarray, and the terminal polarity that makes the
 * shared stripe a NOT gate between neighboring subarrays.
 *
 * Stripe t holds the sense amplifiers shared by subarrays t-1 (above)
 * and t (below). A column c of subarray s terminates at stripe s when
 * (c + s) is even and at stripe s+1 otherwise, so exactly half of the
 * columns of two neighboring subarrays meet at their shared stripe
 * (paper footnote 6: NOT negates half of the row).
 */

#ifndef FCDRAM_DRAM_OPENBITLINE_HH
#define FCDRAM_DRAM_OPENBITLINE_HH

#include <vector>

#include "common/types.hh"
#include "dram/geometry.hh"

namespace fcdram {

/** Stripe that senses column @p col of subarray @p subarray. */
StripeId stripeFor(SubarrayId subarray, ColId col);

/**
 * True if column @p col of neighboring subarrays @p a and @p b is
 * sensed by their shared stripe (and therefore participates in
 * cross-subarray operations).
 */
bool columnShared(SubarrayId a, SubarrayId b, ColId col);

/** Shared stripe between neighboring subarrays. @pre |a - b| == 1 */
StripeId sharedStripe(SubarrayId a, SubarrayId b);

/** All columns of @p geometry shared between neighboring @p a and @p b. */
std::vector<ColId> sharedColumns(const GeometryConfig &geometry,
                                 SubarrayId a, SubarrayId b);

/** Every column of @p geometry, in order. */
std::vector<ColId> allColumns(const GeometryConfig &geometry);

/**
 * Terminal polarity at a stripe: the subarray *above* the stripe
 * (id == stripe - 1) connects to the true terminal; the subarray
 * below (id == stripe) connects to the complement terminal. Sensing
 * drives the true terminal to the sensed value and the complement
 * terminal to its inverse.
 *
 * @return true if @p subarray sits on the complement terminal.
 */
bool onComplementTerminal(SubarrayId subarray, StripeId stripe);

} // namespace fcdram

#endif // FCDRAM_DRAM_OPENBITLINE_HH
