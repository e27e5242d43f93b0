// Exact order statistics over raw samples, and the per-workload result.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// A percentile read from raw samples by nearest rank. `beyond` is how many
// samples lie above the rank; a percentile is only reported when at least
// ten do.
struct Percentile {
  double value = 0.0;
  double level = 0.0;      // the quantile actually reported, in [0, 1]
  std::int64_t n = 0;      // samples it was read from
  std::int64_t beyond = 0;
  bool valid() const { return n > 0 && beyond >= 10; }
};

// Nearest-rank percentile at `level`; `samples` need not be sorted.
Percentile ExactPercentile(std::vector<double> samples, double level);

// The highest percentile at or below `max_level` that still has ten samples
// beyond it (steps of 0.001). Invalid when there are fewer than 11 samples.
Percentile TailPercentile(std::vector<double> samples, double max_level);

double Median(std::vector<double> samples);

// The mean of the largest quarter of `values` (at least one): a tail that
// averages several units instead of resting on the single slowest.
double MeanOfTopQuarter(std::vector<double> values);
double Geomean(const std::vector<double>& positive);

// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

// One metric as reported: value, unit, and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t n = 0;
  std::string note;  // e.g. "p99.0", or why a value is not applicable
};

// Everything one workload run reports. Rendered as one JSON line.
struct WorkloadResult {
  std::string workload;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;       // unexpected failures
  std::vector<std::string> gate;  // correctness checks that ran, with counts
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;  // contract names
  std::map<std::string, Metric> table;       // per-workload detail names
  std::map<std::string, Metric> layers;      // per-layer (traced runs)
  std::string layer_table;  // rendered self-time table (traced runs)
  std::map<std::string, std::string> info;  // build and host facts

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
