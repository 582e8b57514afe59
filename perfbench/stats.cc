#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() >= 4 ? 1 : 0;
    const double kept =
        std::accumulate(v.begin() + cut, v.end() - cut, 0.0);
    return kept / static_cast<double>(v.size() - 2 * cut);
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    // The epsilon keeps q = 0.99, n = 1000 at rank 990 whichever way
    // the product rounds.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

} // namespace perfbench
