// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             --kind sweep|miss|hot [--<key> <value> ...]
//
// Runs one workload and prints one JSON object on stdout: the gate outcome,
// the end-to-end metrics under their contract names, the per-workload
// detail metrics, and, when traced, the per-layer metrics and self-time
// table. Every flag besides the first five is workload data from
// perfbench/workloads.json; perfbench/run.py builds this binary, passes
// that data and formats the results.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/strings.h"
#include "explore/report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

const std::string& WorkloadConfig::Str(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) {
    throw ws::Error("workload " + name + ": missing --" + key);
  }
  return it->second;
}

double WorkloadConfig::Num(const std::string& key) const {
  const std::string& text = Str(key);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw ws::Error("workload " + name + ": --" + key +
                    " is not a number: " + text);
  }
  return v;
}

int WorkloadConfig::Int(const std::string& key) const {
  return static_cast<int>(Num(key));
}

std::vector<std::string> WorkloadConfig::List(const std::string& key) const {
  std::vector<std::string> out;
  std::istringstream in(Str(key));
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

namespace {
cpu_set_t g_all_cpus;  // the CPUs the program may use
cpu_set_t g_one_cpu;   // the one its workload threads run on
int g_pinned_cpu = -1;
}  // namespace

void PinToOneCpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0 || ::sched_getaffinity(0, sizeof(g_all_cpus), &g_all_cpus) != 0) {
    return;
  }
  CPU_ZERO(&g_one_cpu);
  CPU_SET(cpu, &g_one_cpu);
  if (::sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu) == 0) g_pinned_cpu = cpu;
}

void UnpinCpus() {
  if (g_pinned_cpu >= 0) ::sched_setaffinity(0, sizeof(g_all_cpus), &g_all_cpus);
  g_pinned_cpu = -1;
}

void LeavePinnedCpu() {
  if (g_pinned_cpu < 0) return;
  cpu_set_t rest = g_all_cpus;
  CPU_CLR(g_pinned_cpu, &rest);
  if (CPU_COUNT(&rest) > 0) ::sched_setaffinity(0, sizeof(rest), &rest);
}

void ReturnToPinnedCpu() {
  if (g_pinned_cpu >= 0) ::sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu);
}

int GateThreads() {
  return static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
}

ws::SpeculationMode ParseMode(const std::string& name) {
  if (name == "ws") return ws::SpeculationMode::kWavesched;
  if (name == "single") return ws::SpeculationMode::kSinglePath;
  if (name == "spec") return ws::SpeculationMode::kWaveschedSpec;
  throw ws::Error("unknown mode '" + name + "' (ws, single, spec)");
}

const char* ModeKey(ws::SpeculationMode mode) {
  switch (mode) {
    case ws::SpeculationMode::kWavesched: return "ws";
    case ws::SpeculationMode::kSinglePath: return "single";
    case ws::SpeculationMode::kWaveschedSpec: return "spec";
  }
  return "?";
}

std::string CellKey(const std::string& design, ws::SpeculationMode mode) {
  return design + "/" + ModeKey(mode);
}

std::string ReadDesignSource(const std::string& stem) {
  const std::string path = std::string("examples/designs/") + stem + ".beh";
  std::ifstream in(path);
  if (!in) throw ws::Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string CanonicalRow(const ws::ExploreRun& run) {
  ws::ReportRenderOptions opts;
  opts.include_timing = false;
  return ws::ExploreRunToJson(run, opts);
}

std::vector<LayerRow> FinishTrace(const std::string& out_dir,
                                  WorkloadResult* result) {
  const std::vector<ThreadSpans> spans = Tracer::Snapshot();
  Tracer::Clear();
  std::vector<LayerRow> rows = SummarizeLayers(spans);
  result->layer_table = RenderLayerTable(rows);
  const std::string base = out_dir + "/" + result->workload;
  if (!WriteChromeTrace(spans, base + ".trace.json")) {
    result->Fail("cannot write " + base + ".trace.json");
  }
  std::ofstream(base + ".layers.txt") << result->layer_table;

  // What recording cost: every span's recording cost, timed in a tight
  // loop, as a share of the time inside the root spans (cells, requests).
  std::int64_t count = 0, root_ns = 0;
  for (const ThreadSpans& t : spans) {
    count += static_cast<std::int64_t>(t.spans.size());
    for (const Span& s : t.spans) {
      if (s.parent < 0) root_ns += s.end_ns - s.start_ns;
    }
  }
  const double span_ns = MeasureSpanCostNs();
  result->layers["trace.overhead_pct"] = {
      root_ns > 0 ? 100.0 * static_cast<double>(count) * span_ns /
                        static_cast<double>(root_ns)
                  : 0.0,
      "%", count,
      ws::StrCat("spans x ", span_ns,
                 " ns per span (tight loop) / time in root spans")};
  return rows;
}

void SchedTotals::Add(const ws::ScheduleStats& s) {
  ++ok;
  candidates += s.candidates_generated;
  states += s.states_created;
  closure_hits += s.closure_hits;
  spec_ops += s.speculative_ops;
  squashed += s.squashed_ops;
  collisions += s.signature_collisions;
  bdd_ops += s.bdd_ops;
  bdd_nodes += s.bdd_nodes;
  successor_ns += s.phase.successor_ns;
  cofactor_ns += s.phase.cofactor_ns;
  closure_ns += s.phase.closure_ns;
  select_ns += s.phase.select_ns;
  gc_ns += s.phase.gc_ns;
  total_ns += s.phase.total_ns;
}

void AddSchedLayers(const SchedTotals& t, WorkloadResult* r) {
  const double ok = static_cast<double>(std::max<std::int64_t>(1, t.ok));
  const std::int64_t n = t.ok;
  auto per_ok = [&](double v) { return t.ok > 0 ? v / ok : 0.0; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = r->layers;
  L["sched.busy_ms"] = {t.calls > 0 ? t.busy_ms / static_cast<double>(t.calls) : 0.0,
                        "ms", t.calls, "mean Schedule() wall per call"};
  L["sched.calls"] = {static_cast<double>(t.calls), "count", t.calls, "traced half"};
  L["sched.candidates"] = {per_ok(static_cast<double>(t.candidates)), "count", n,
                           "per closed schedule"};
  L["sched.states"] = {per_ok(static_cast<double>(t.states)), "count", n,
                       "per closed schedule"};
  L["sched.closure_hits"] = {per_ok(static_cast<double>(t.closure_hits)), "count",
                             n, "per closed schedule"};
  L["sched.closure_hit_ratio"] = {
      ratio(static_cast<double>(t.closure_hits),
            static_cast<double>(t.closure_hits + t.states)),
      "ratio", n, "hits / (hits + states created)"};
  L["sched.spec_ops"] = {per_ok(static_cast<double>(t.spec_ops)), "count", n,
                         "per closed schedule"};
  L["sched.squashed_ops"] = {per_ok(static_cast<double>(t.squashed)), "count", n,
                             "per closed schedule"};
  L["sched.spec_useful_ratio"] = {
      t.spec_ops > 0 ? 1.0 - ratio(static_cast<double>(t.squashed),
                                   static_cast<double>(t.spec_ops))
                     : 0.0,
      "ratio", n, "1 - squashed / speculative"};
  L["sched.signature_collisions"] = {static_cast<double>(t.collisions), "count", n,
                                     "total"};
  auto phase = [&](const char* name, std::int64_t ns) {
    L[name] = {per_ok(static_cast<double>(ns) / 1e6), "ms", n, "per closed schedule"};
  };
  phase("sched.phase.successor_ms", t.successor_ns);
  phase("sched.phase.cofactor_ms", t.cofactor_ns);
  phase("sched.phase.closure_ms", t.closure_ns);
  phase("sched.phase.select_ms", t.select_ns);
  phase("sched.phase.gc_ms", t.gc_ns);
  // select nests inside successor, so it is not subtracted again.
  phase("sched.phase.unattributed_ms",
        t.total_ns - t.successor_ns - t.cofactor_ns - t.closure_ns - t.gc_ns);
  L["sched.cap_verdict_ms"] = {
      t.cap_calls > 0 ? t.cap_ms / static_cast<double>(t.cap_calls) : 0.0, "ms",
      t.cap_calls, "mean Schedule() wall of state-cap verdicts"};
  L["bdd.ops"] = {per_ok(static_cast<double>(t.bdd_ops)), "count", n,
                  "per closed schedule"};
  L["bdd.nodes"] = {per_ok(static_cast<double>(t.bdd_nodes)), "count", n,
                    "per closed schedule"};
  L["bdd.ops_per_ms"] = {ratio(static_cast<double>(t.bdd_ops),
                               static_cast<double>(t.total_ns) / 1e6),
                         "1/ms", n, "BDD ops per ms of scheduling"};
}

namespace {

// Every per-layer metric, so a workload that does not exercise a layer
// still reports it (as 0, noted).
const char* const kLayerMetrics[][2] = {
    {"sched.busy_ms", "ms"}, {"sched.calls", "count"},
    {"sched.candidates", "count"}, {"sched.states", "count"},
    {"sched.closure_hits", "count"}, {"sched.closure_hit_ratio", "ratio"},
    {"sched.spec_ops", "count"}, {"sched.squashed_ops", "count"},
    {"sched.spec_useful_ratio", "ratio"}, {"sched.signature_collisions", "count"},
    {"sched.phase.successor_ms", "ms"}, {"sched.phase.cofactor_ms", "ms"},
    {"sched.phase.closure_ms", "ms"}, {"sched.phase.select_ms", "ms"},
    {"sched.phase.gc_ms", "ms"}, {"sched.phase.unattributed_ms", "ms"},
    {"sched.cap_verdict_ms", "ms"}, {"bdd.ops", "count"}, {"bdd.nodes", "count"},
    {"bdd.ops_per_ms", "1/ms"}, {"mem.relax_us", "us"},
    {"mem.active_cells", "count"}, {"suite.build_ms", "ms"},
    {"lang.compile_us", "us"}, {"sim.enc_ms", "ms"},
    {"sim.cycles_per_ms", "cycles/ms"}, {"analysis.markov_us", "us"},
    {"analysis.best_case_us", "us"}, {"analysis.worst_case_us", "us"},
    {"rtl.area_us", "us"}, {"explore.utilization", "ratio"},
    {"explore.longest_cell_ms", "ms"}, {"io.encode_us", "us"},
    {"io.artifact_bytes", "bytes"}, {"io.store_put_us", "us"},
    {"io.store_get_us", "us"}, {"io.warm_start_ms", "ms"},
    {"serve.submit_us", "us"}, {"serve.wait_us", "us"},
    {"serve.compute_ms", "ms"}, {"serve.queue_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced", "count"},
    {"serve.sched_runs", "count"}, {"serve.overloaded", "count"},
    {"serve.queue_depth_max", "count"}, {"serve.backlog", "count"},
    {"serve.gen_late_ms", "ms"}, {"adapt.report_us", "us"},
    {"adapt.profiles", "count"}, {"adapt.swaps", "count"},
    {"adapt.swap_ratio", "ratio"}, {"adapt.resched_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR --kind sweep|miss|hot "
               "[--<key> <value> ...]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  WorkloadConfig config;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + arg);
    const std::string key = arg.substr(2);
    const std::string value = argv[++i];
    if (key == "workload") config.name = value;
    else if (key == "seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "seconds") options.seconds = std::atof(value.c_str());
    else if (key == "trace") options.trace = value == "1";
    else if (key == "out") options.out_dir = value;
    else config.values[key] = value;
  }
  if (config.name.empty()) Usage("--workload is required");
  if (options.out_dir.empty()) Usage("--out is required");
  if (options.seconds <= 0) Usage("--seconds must be positive");

  WorkloadResult result;
  PinToOneCpu();
  try {
    const std::string& kind = config.Str("kind");
    if (kind == "sweep") {
      result = RunSweepWorkload(config, options);
    } else if (kind == "miss" || kind == "hot") {
      result = RunServeWorkload(config, options);
    } else {
      throw ws::Error("unknown --kind " + kind);
    }
  } catch (const std::exception& e) {
    result = WorkloadResult{};
    result.workload = config.name;
    result.Fail(std::string("run aborted: ") + e.what());
  }
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (result.layers.count(name) == 0) {
        result.layers[name] = Metric{0.0, unit, 0, "not exercised by this workload"};
      }
    }
  }
  result.info["compiler"] = PERFBENCH_COMPILER;
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["threads"] = std::to_string(options.threads);
  result.info["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
