// The four workloads. Each returns the run's metrics and gate outcome; the
// correctness gate runs outside the timed window and never drops a result.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "explore/explore.h"
#include "sched/scheduler.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

// One workload's data from perfbench/workloads.json, passed by run.py as
// "--<key> <value>" flags (lists comma-separated). The measurement method's
// own numbers are constants in the workload sources, not config.
struct WorkloadConfig {
  std::string name;
  std::map<std::string, std::string> values;

  // Accessors fail the run (ws::Error) on a missing or malformed key: the
  // flags are generated, so a gap is a bug in run.py, not a user choice.
  const std::string& Str(const std::string& key) const;
  double Num(const std::string& key) const;
  int Int(const std::string& key) const;
  std::vector<std::string> List(const std::string& key) const;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   // the measured window (split in half when traced)
  bool trace = false;      // per-layer run: untraced half + traced half
  // One explore worker, server shard, server worker and client connection,
  // within the min(nproc, 4) a workload may use. On a shared host every
  // thread beyond the cores the workload gets to itself measures the OS
  // scheduler: with four, a sweep waited on its most-preempted worker and
  // the figures moved by a third between runs of the same code.
  int threads = 1;
  std::string out_dir;     // traced-run outputs and temporary stores
};

// Threads for the correctness gate's in-process recomputation, which runs
// after the timed window: min(nproc, 4).
int GateThreads();

// Keeps every thread of the workload on the CPU the program started on.
// The serve workloads hand each request from the client thread to the
// server's threads and back; across CPUs every hand-off wakes an idle
// virtual CPU, whose wake-up delay on a shared host varies with the other
// tenants' load. UnpinCpus lets the gate's recomputation use every CPU;
// threads started after it inherit the wider set.
void PinToOneCpu();
void UnpinCpus();

// Moves the calling thread off the pinned CPU and back: an open-loop
// generator stands for users outside the server, so it must not wait for
// the server's CPU to release its arrivals.
void LeavePinnedCpu();
void ReturnToPinnedCpu();

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

// The timed figures are read at the fast decile of many short, equal units
// of work (sweep passes, request windows), not at their median. On a shared
// host a single thread's speed swings by up to 1.6x within seconds as other
// tenants come and go, so the median moved with how much of each run fell
// into slow spells; the fast decile moves with the program. A change that
// slows the program slows every unit, so it shows in full.
constexpr double kFastLevel = 0.1;

// `suite` and `mem_deep`: closed-loop RunExplore sweeps.
WorkloadResult RunSweepWorkload(const WorkloadConfig& config,
                                const RunOptions& options);

// `serve_miss` and `serve_hot`: an in-process ServeServer driven open-loop
// through ServeClient connections.
WorkloadResult RunServeWorkload(const WorkloadConfig& config,
                                const RunOptions& options);

// --- shared helpers --------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MsSince(Clock::time_point t) { return 1e3 * SecondsSince(t); }
inline double UsSince(Clock::time_point t) { return 1e6 * SecondsSince(t); }

// "ws", "single", "spec" <-> SpeculationMode.
ws::SpeculationMode ParseMode(const std::string& name);
const char* ModeKey(ws::SpeculationMode mode);

// A cell's name in the config: "<design>/<mode key>".
std::string CellKey(const std::string& design, ws::SpeculationMode mode);

// Reads examples/designs/<stem>.beh (relative to the repository root).
std::string ReadDesignSource(const std::string& stem);

// A run's canonical rendering without timing fields: what the gate compares.
std::string CanonicalRow(const ws::ExploreRun& run);

// Ends a traced run: summarizes the recorded spans into `result`'s layer
// table, writes <out_dir>/<workload>.trace.json and .layers.txt, clears the
// recorder, reports trace.overhead_pct, and returns the per-layer rows.
std::vector<LayerRow> FinishTrace(const std::string& out_dir,
                                  WorkloadResult* result);

// Adds the sched.* and bdd.* per-layer metrics for a set of ScheduleStats.
// `calls` counts every Schedule() invocation, including failed ones.
struct SchedTotals {
  std::int64_t calls = 0;
  std::int64_t ok = 0;
  double busy_ms = 0.0;       // sum of Schedule() wall time
  double cap_ms = 0.0;        // sum over calls that ended at the state cap
  std::int64_t cap_calls = 0;
  std::int64_t candidates = 0, states = 0, closure_hits = 0, spec_ops = 0,
               squashed = 0, collisions = 0;
  std::uint64_t bdd_ops = 0, bdd_nodes = 0;
  std::int64_t successor_ns = 0, cofactor_ns = 0, closure_ns = 0,
               select_ns = 0, gc_ns = 0, total_ns = 0;
  void Add(const ws::ScheduleStats& stats);
};
void AddSchedLayers(const SchedTotals& t, WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
