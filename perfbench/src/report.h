// Named metrics and the small statistics the report needs.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< Observations behind the value (0 = a count).
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The q-quantile (0..1) with linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
