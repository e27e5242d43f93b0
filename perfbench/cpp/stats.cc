#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

namespace perfbench {
namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void MetricsJson(std::ostringstream& os, const std::map<std::string, Metric>& m) {
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) os << ",";
    first = false;
    os << Quoted(name) << ":{\"value\":" << Num(metric.value)
       << ",\"unit\":" << Quoted(metric.unit) << ",\"n\":" << metric.n;
    if (!metric.note.empty()) os << ",\"note\":" << Quoted(metric.note);
    os << "}";
  }
  os << "}";
}

void StringsJson(std::ostringstream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ",";
    os << Quoted(v[i]);
  }
  os << "]";
}

Percentile AtRank(const std::vector<double>& sorted, double level) {
  Percentile p;
  p.n = static_cast<std::int64_t>(sorted.size());
  p.level = level;
  if (sorted.empty()) return p;
  auto rank = static_cast<std::int64_t>(
      std::ceil(level * static_cast<double>(p.n) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, p.n);
  p.value = sorted[static_cast<std::size_t>(rank - 1)];
  p.beyond = p.n - rank;
  return p;
}

}  // namespace

Percentile ExactPercentile(std::vector<double> samples, double level) {
  std::sort(samples.begin(), samples.end());
  return AtRank(samples, level);
}

Percentile TailPercentile(std::vector<double> samples, double max_level) {
  std::sort(samples.begin(), samples.end());
  for (int milli = static_cast<int>(std::lround(max_level * 1000)); milli >= 500;
       --milli) {
    const Percentile p = AtRank(samples, milli / 1000.0);
    if (p.valid()) return p;
  }
  return AtRank(samples, max_level);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double MeanOfTopQuarter(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end(), std::greater<double>());
  const std::size_t k = (values.size() + 3) / 4;
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += values[i];
  return sum / static_cast<double>(k);
}

double Geomean(const std::vector<double>& positive) {
  if (positive.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : positive) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(positive.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string WorkloadResult::ToJson() const {
  std::ostringstream os;
  os << "{\"workload\":" << Quoted(workload)
     << ",\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"gate\":";
  StringsJson(os, gate);
  os << ",\"errors\":";
  StringsJson(os, errors);
  os << ",\"end_to_end\":";
  MetricsJson(os, end_to_end);
  os << ",\"table\":";
  MetricsJson(os, table);
  os << ",\"layers\":";
  MetricsJson(os, layers);
  os << ",\"layer_table\":" << Quoted(layer_table) << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : info) {
    os << (first ? "" : ",") << Quoted(k) << ":" << Quoted(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
