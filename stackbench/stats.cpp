#include <algorithm>
#include <cmath>

#include "stackbench.h"

namespace stackbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (pos - lo) * (sample[hi] - sample[lo]);
}

bool p99_supported(std::size_t n) { return n >= 1000; }

}  // namespace stackbench
