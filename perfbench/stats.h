/**
 * @file
 * Order statistics for the benchmark's reported numbers.
 *
 * Latency percentiles use the nearest-rank definition and refuse to
 * answer when fewer than ten samples lie beyond the requested rank: a
 * p99 of 500 requests rests on five samples, so one outlier would read
 * as the tail.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** Median (mean of the two middle values for an even count); 0 when
 *  @p v is empty. */
double median(std::vector<double> v);

/** Mean of @p v without its lowest and highest value when it holds at
 *  least four (plain mean otherwise); 0 when @p v is empty. */
double trimmedMean(std::vector<double> v);

/**
 * Nearest-rank @p q-quantile (0 < q < 1) of @p samples: the value at
 * rank ceil(q * n). std::nullopt when fewer than kMinSamplesBeyond
 * samples rank above it.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Sum of @p v. */
double sum(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
