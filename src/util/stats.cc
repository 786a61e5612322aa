#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mbe::util {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

std::string FormatWithSuffix(double x, const char* suffix) {
  char buf[64];
  if (x >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", x, suffix);
  } else if (x >= 10) {
    std::snprintf(buf, sizeof(buf), "%.1f%s", x, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%s", x, suffix);
  }
  return buf;
}

}  // namespace

std::string HumanCount(double x) {
  if (x < 0) return std::string("-").append(HumanCount(-x));
  if (x >= 1e9) return FormatWithSuffix(x / 1e9, "B");
  if (x >= 1e6) return FormatWithSuffix(x / 1e6, "M");
  if (x >= 1e3) return FormatWithSuffix(x / 1e3, "K");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", x);
  return buf;
}

std::string HumanBytes(uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024 * 1024) {
    return FormatWithSuffix(b / (1024.0 * 1024 * 1024), "GiB");
  }
  if (b >= 1024.0 * 1024) return FormatWithSuffix(b / (1024.0 * 1024), "MiB");
  if (b >= 1024.0) return FormatWithSuffix(b / 1024.0, "KiB");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  return buf;
}

std::string HumanSeconds(double seconds) {
  if (seconds < 0) return std::string("-").append(HumanSeconds(-seconds));
  if (seconds < 1e-6) return FormatWithSuffix(seconds * 1e9, "ns");
  if (seconds < 1e-3) return FormatWithSuffix(seconds * 1e6, "us");
  if (seconds < 1.0) return FormatWithSuffix(seconds * 1e3, "ms");
  return FormatWithSuffix(seconds, "s");
}

}  // namespace mbe::util
