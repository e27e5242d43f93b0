// The sweep workloads (`suite`, `mem_deep`): closed loop, the next sweep
// starts when the last one finishes.
//
// Untraced passes call RunExplore, the entry point ws_explore uses. The
// traced half instead drives the same cells through the public cell
// building blocks RunExplore is made of, with a span around each call, and
// its rows must equal RunExplore's canonical rows.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>

#include "analysis/metrics.h"
#include "base/thread_pool.h"
#include "explore/explore.h"
#include "explore/run_codec.h"
#include "lang/lower.h"
#include "mem/disambig.h"
#include "rtl/rtl.h"
#include "sim/stg_sim.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ws::ExploreCell;
using ws::ExploreReport;
using ws::ExploreRun;
using ws::ExploreSpec;

struct Sweep {
  // Designs that share one set of modes run as one RunExplore grid; the
  // suite needs two because popcount.beh leaves out spec mode.
  std::vector<ExploreSpec> groups;
  std::vector<std::string> canonical_keys;  // report order for comparisons
  std::set<std::string> expect_cap;
  std::vector<std::string> quality;
};

Sweep BuildSweep(const WorkloadConfig& c, const RunOptions& o) {
  ExploreSpec base;  // 50 stimuli from seed 1998, as ws_explore runs them
  base.measure_sim_enc = true;
  base.measure_area = true;
  base.workers = o.threads;
  base.base_options.mem_spec = c.Int("mem_spec") != 0;
  base.mem_specs = {base.base_options.mem_spec};

  std::vector<ws::DesignSpec> designs;
  for (const std::string& name : c.List("registry")) {
    designs.push_back(ws::DesignSpec{name, ""});
  }
  for (const std::string& stem : c.List("beh")) {
    designs.push_back(
        ws::DesignSpec{stem + ".beh", ReadDesignSource(stem)});
  }
  std::vector<ws::SpeculationMode> modes;
  for (const std::string& m : c.List("modes")) modes.push_back(ParseMode(m));
  const std::vector<std::string> excluded = c.List("exclude");

  Sweep sweep;
  std::map<std::vector<ws::SpeculationMode>, std::size_t> group_of;
  for (const ws::DesignSpec& d : designs) {
    std::vector<ws::SpeculationMode> kept;
    for (const ws::SpeculationMode m : modes) {
      const std::string key = CellKey(d.name, m);
      if (std::find(excluded.begin(), excluded.end(), key) == excluded.end()) {
        kept.push_back(m);
      }
    }
    if (kept.empty()) continue;
    auto [it, fresh] = group_of.emplace(kept, sweep.groups.size());
    if (fresh) {
      sweep.groups.push_back(base);
      sweep.groups.back().modes = kept;
    }
    sweep.groups[it->second].designs.push_back(d);
  }
  for (const ExploreSpec& g : sweep.groups) {
    for (const ExploreCell& cell : ws::ExpandExploreGrid(g)) {
      sweep.canonical_keys.push_back(CellKey(cell.design.name, cell.mode));
    }
  }
  for (const std::string& k : c.List("expect_cap")) sweep.expect_cap.insert(k);
  sweep.quality = c.List("quality");
  return sweep;
}

// The grid of one pass: each group's designs in a seeded order (users submit
// sweeps in no particular order; the order moves load balance, not rows).
std::vector<ExploreSpec> PassSpecs(const Sweep& sweep, std::mt19937_64& rng) {
  std::vector<ExploreSpec> out;
  for (ExploreSpec spec : sweep.groups) {
    std::shuffle(spec.designs.begin(), spec.designs.end(), rng);
    out.push_back(std::move(spec));
  }
  return out;
}

struct PassOutcome {
  std::vector<ExploreRun> runs;
  double wall_s = 0.0;
  double busy_ms = 0.0;  // sum of cell wall times
};

PassOutcome RunExplorePass(const std::vector<ExploreSpec>& specs) {
  PassOutcome out;
  const auto start = Clock::now();
  for (const ExploreSpec& spec : specs) {
    ws::Result<ExploreReport> report = ws::RunExplore(spec);
    if (!report.ok()) throw ws::Error("RunExplore: " + report.error());
    for (ExploreRun& run : report->runs) {
      out.busy_ms += run.wall_ms;
      out.runs.push_back(std::move(run));
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

// --- traced cells ----------------------------------------------------------

struct TracedCell {
  ExploreRun run;
  double sched_ms = 0.0;
  bool cap_verdict = false;
  bool mem_active = false;
  std::size_t artifact_bytes = 0;
};


// RunExploreCell's steps, one public call per span. Error texts and field
// assignments follow RunBenchmarkCell so the canonical rows compare equal.
TracedCell RunTracedCell(const ExploreSpec& spec, const ExploreCell& cell,
                         std::uint64_t id) {
  const ScopedSpan root("cell", id);
  const auto start = Clock::now();
  TracedCell out;
  ExploreRun& run = out.run;
  run.design = cell.design.name;
  run.mode = cell.mode;
  run.policy = cell.policy;
  run.mem_spec = cell.mem_spec;
  run.allocation = cell.alloc.label;
  run.clock = cell.clock.label;
  auto fail = [&](const ws::Status& status) {
    run.error = status.message();
    run.error_code = status.code();
    run.wall_ms = MsSince(start);
    return out;
  };

  if (!cell.design.source.empty()) {
    // The frontend alone, timed by an extra compile: BuildExploreDesign
    // compiles again below.
    InSpan("lang.compile", [&] {
      return ws::CompileBehavioral(cell.design.name, cell.design.source);
    });
  }
  const ws::Result<ws::Benchmark> bench = InSpan(
      "suite.build", [&] { return ws::BuildExploreDesign(cell.design, spec); });
  if (!bench.ok()) return fail(bench.status());
  const ws::Benchmark& b = *bench;
  const ws::Result<ws::Allocation> allocation =
      InSpan("explore.alloc",
             [&] { return ws::BuildExploreAllocation(b, cell.alloc); });
  if (!allocation.ok()) return fail(allocation.status());
  const ws::ScheduleRequest request =
      ws::MakeCellScheduleRequest(spec, b, *allocation, cell);

  std::optional<ws::MemSpecResult> relaxed;
  const ws::Cdfg* analysis_graph = &b.graph;
  if (request.options.mem_spec &&
      request.options.mode != ws::SpeculationMode::kWavesched) {
    ws::MemSpecResult r =
        InSpan("mem.relax", [&] { return ws::ApplyMemSpec(b.graph); });
    if (r.lsq.active()) {
      relaxed = std::move(r);
      analysis_graph = &relaxed->graph;
      out.mem_active = true;
    }
  }

  const auto sched_start = Clock::now();
  ws::Result<ws::ScheduleReport> report =
      InSpan("sched.schedule", [&] { return ws::Schedule(request); });
  out.sched_ms = MsSince(sched_start);
  if (!report.ok()) {
    out.cap_verdict =
        report.error().find("state cap exceeded") != std::string::npos;
    return fail(report.status());
  }
  const ws::Stg& stg = report->stg;
  run.stats = report->stats;
  run.states = stg.num_work_states();
  run.op_initiations = stg.num_op_initiations();
  run.worst_case_budget = b.worst_case_budget;
  try {
    run.enc_markov = InSpan("analysis.markov", [&] {
      return ws::ExpectedCycles(stg, *analysis_graph);
    });
    run.best_case =
        InSpan("analysis.best_case", [&] { return ws::BestCaseCycles(stg); });
    run.worst_case = InSpan("analysis.worst_case", [&] {
      return ws::WorstCaseCycles(stg, b.worst_case_budget);
    });
    if (spec.measure_sim_enc) {
      // Also the golden-interpreter cross-check: it throws on any trace
      // whose STG outputs differ from the interpreter's.
      run.enc_sim = InSpan("sim.enc", [&] {
        return ws::MeasureExpectedCycles(stg, *analysis_graph, b.stimuli);
      });
    }
    if (spec.measure_area) {
      run.area = InSpan("rtl.area", [&] {
        return ws::EstimateArea(stg, *analysis_graph, b.library,
                                b.stimuli.at(0), ws::AreaModel{},
                                &*allocation)
            .total;
      });
    }
  } catch (const ws::Error& e) {
    return fail(ws::Status::MakeError(ws::StatusCode::kInternal,
                                      std::string("analysis: ") + e.what()));
  }
  run.ok = true;
  run.stg = std::move(report->stg);
  run.wall_ms = MsSince(start);
  out.artifact_bytes =
      InSpan("io.encode", [&] { return ws::EncodeRunArtifact(run); }).size();
  return out;
}

// One pass over the groups in turn, each on its own pool of `threads`
// workers and followed by RunExplore's cross-run area post-pass — the same
// shape as RunExplorePass, so the two halves of a traced run compare.
std::vector<TracedCell> RunTracedPass(const std::vector<ExploreSpec>& specs,
                                      int threads, std::uint64_t* next_id) {
  std::vector<TracedCell> out;
  for (const ExploreSpec& spec : specs) {
    const std::vector<ExploreCell> cells = ws::ExpandExploreGrid(spec);
    std::vector<TracedCell> group(cells.size());
    {
      ws::ThreadPool pool(threads);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::uint64_t id = ++*next_id;
        pool.Submit([&spec, &cells, &group, i, id] {
          group[i] = RunTracedCell(spec, cells[i], id);
        });
      }
      pool.Wait();
    }
    if (spec.measure_area) {
      ExploreReport report;
      for (TracedCell& c : group) report.runs.push_back(std::move(c.run));
      ws::ApplyAreaOverheads(&report);
      for (std::size_t i = 0; i < group.size(); ++i) {
        group[i].run = std::move(report.runs[i]);
      }
    }
    for (TracedCell& c : group) out.push_back(std::move(c));
  }
  return out;
}

// --- the gate --------------------------------------------------------------

struct Gate {
  const Sweep* sweep = nullptr;
  std::map<std::string, std::string> reference;  // key -> canonical row
  std::map<std::string, ExploreRun> reference_runs;  // the same rows, no STG
  std::int64_t cells_checked = 0;
  std::int64_t passes_compared = 0;
  std::int64_t cap_verdicts = 0;
  std::int64_t unexpected = 0;
  std::set<std::string> cap_cells_closed;

  // Checks one pass's rows: verdicts, and byte equality with pass 0.
  void Check(const std::vector<const ExploreRun*>& runs, WorkloadResult* r) {
    std::map<std::string, std::string> rows;
    const bool first = reference.empty();
    for (const ExploreRun* run : runs) {
      const std::string key = CellKey(run->design, run->mode);
      rows[key] = CanonicalRow(*run);
      if (first) {
        ExploreRun copy = *run;
        copy.stg = ws::Stg("");
        reference_runs[key] = std::move(copy);
      }
      ++cells_checked;
      const bool capped = !run->ok && run->error.find("state cap exceeded") !=
                                          std::string::npos;
      if (sweep->expect_cap.count(key) != 0) {
        if (capped) {
          ++cap_verdicts;
        } else if (run->ok) {
          cap_cells_closed.insert(key);
        } else {
          ++unexpected;
          r->Fail("cell " + key + " failed: " + run->error);
        }
      } else if (!run->ok) {
        ++unexpected;
        r->Fail("cell " + key + " failed: " + run->error);
      }
    }
    if (rows.size() != sweep->canonical_keys.size()) {
      r->Fail("a pass returned " + std::to_string(rows.size()) +
              " distinct cells, expected " +
              std::to_string(sweep->canonical_keys.size()));
    }
    if (first) {
      reference = std::move(rows);
      return;
    }
    ++passes_compared;
    for (const std::string& key : sweep->canonical_keys) {
      if (rows[key] != reference[key]) {
        r->Fail("canonical row of " + key +
                " differs from the first pass:\n  " + reference[key] +
                "\n  " + rows[key]);
        return;
      }
    }
  }
};

std::vector<const ExploreRun*> Pointers(const std::vector<ExploreRun>& runs) {
  std::vector<const ExploreRun*> out;
  for (const ExploreRun& r : runs) out.push_back(&r);
  return out;
}

void AddQuality(const Sweep& sweep, const Gate& gate, WorkloadResult* r) {
  std::vector<double> encs;
  double states = 0.0;
  double area = 0.0;
  for (const std::string& key : sweep.quality) {
    const auto it = gate.reference_runs.find(key);
    if (it == gate.reference_runs.end()) {
      r->Fail("quality cell " + key + " is not in the sweep");
      continue;
    }
    const ExploreRun& run = it->second;
    if (!run.ok || run.enc_sim <= 0.0) {
      r->Fail("quality cell " + key + " did not close");
      continue;
    }
    encs.push_back(run.enc_sim);
    states += static_cast<double>(run.states);
    area += run.area;
  }
  const auto n = static_cast<std::int64_t>(sweep.quality.size());
  r->end_to_end["enc_geomean"] = {Geomean(encs), "cycles", n, ""};
  r->end_to_end["states_total"] = {states, "count", n, ""};
  r->end_to_end["area_total"] = {area, "GE", n, ""};
}

}  // namespace

WorkloadResult RunSweepWorkload(const WorkloadConfig& config,
                                const RunOptions& options) {
  WorkloadResult r;
  r.workload = config.name;
  std::mt19937_64 rng(options.seed);

  // Set-up, repeated: read and build the inputs, then one warm-up sweep. The
  // first warm-up sweep's rows are the reference every later pass must
  // reproduce byte for byte.
  Sweep sweep;
  Gate gate;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t = Clock::now();
    sweep = BuildSweep(config, options);
    for (const ExploreSpec& g : sweep.groups) {
      for (const ws::DesignSpec& d : g.designs) {
        ws::Result<ws::Benchmark> b = ws::BuildExploreDesign(d, g);
        if (!b.ok()) r.Fail("design " + d.name + ": " + b.error());
      }
    }
    gate.sweep = &sweep;
    const PassOutcome warm = RunExplorePass(PassSpecs(sweep, rng));
    setup_s.push_back(SecondsSince(t));
    gate.Check(Pointers(warm.runs), &r);
  }
  r.end_to_end["setup_s"] = {Median(setup_s), "s",
                             static_cast<std::int64_t>(setup_s.size()), ""};
  r.table["setup_s"] = r.end_to_end["setup_s"];

  // Untraced closed loop (the first half of a traced run).
  const double loop_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> cell_ms;
  std::vector<double> outside_ms;  // per pass: wall time outside its cells
  std::map<std::string, std::vector<double>> by_cell;  // wall per cell key
  double wall_s = 0.0;
  double busy_ms = 0.0;
  double longest_ms = 0.0;
  std::int64_t cells = 0;
  std::int64_t passes = 0;
  const auto loop_start = Clock::now();
  while (passes == 0 || SecondsSince(loop_start) < loop_s) {
    PassOutcome pass = RunExplorePass(PassSpecs(sweep, rng));
    wall_s += pass.wall_s;
    busy_ms += pass.busy_ms;
    ++passes;
    double slowest = 0.0;
    for (const ExploreRun& run : pass.runs) {
      cell_ms.push_back(run.wall_ms);
      by_cell[CellKey(run.design, run.mode)].push_back(run.wall_ms);
      slowest = std::max(slowest, run.wall_ms);
    }
    outside_ms.push_back(1000.0 * pass.wall_s - pass.busy_ms);
    longest_ms = std::max(longest_ms, slowest);
    cells += static_cast<std::int64_t>(pass.runs.size());
    gate.Check(Pointers(pass.runs), &r);
  }
  // Every pass runs the same cells. A sweep's time is each cell's
  // fast-decile wall time, summed, plus the fast-decile time a pass spends
  // outside its cells; reading the decile per cell takes each cell from the
  // host's quieter moments, which a whole pass of one slow spell cannot.
  double pass_fast_ms = ExactPercentile(outside_ms, kFastLevel).value;
  std::vector<double> cell_fast_ms;
  for (const auto& [key, v] : by_cell) {
    cell_fast_ms.push_back(ExactPercentile(v, kFastLevel).value);
    pass_fast_ms += cell_fast_ms.back();
  }
  const double cells_per_s = static_cast<double>(cells) /
                             static_cast<double>(passes) /
                             (pass_fast_ms / 1000.0);
  r.attempted = cells;

  // A user waits for a whole sweep, so latency is the sweep's wall time; the
  // tail is its slowest quarter of cells, each at its fast decile, averaged
  // (one slowest cell's decile over a dozen passes moved with the host).
  // The pooled cell-time percentiles land between clusters of a dozen cell
  // types and moved by more than the bound between seeds; they stay in the
  // table.
  const Percentile p50 = ExactPercentile(cell_ms, 0.5);
  const Percentile tail = TailPercentile(cell_ms, 0.99);
  char level[48];
  std::snprintf(level, sizeof(level), "cell verdict p%.1f", 100 * tail.level);
  r.end_to_end["throughput_per_s"] = {cells_per_s, "1/s", passes,
                                      "cells_per_s, cells per sweep wall time"};
  r.end_to_end["latency_ms"] = {pass_fast_ms, "ms", passes,
                                "sweep wall time, fast decile per cell"};
  r.end_to_end["tail_ms"] = {MeanOfTopQuarter(cell_fast_ms), "ms", passes,
                             "mean of the slowest quarter of cells, fast decile"};
  r.table["cells_per_s"] = r.end_to_end["throughput_per_s"];
  r.table["cell_p50_ms"] = {p50.value, "ms", p50.n, "cell verdict p50"};
  r.table["sweep_ms"] = r.end_to_end["latency_ms"];
  r.table["cell_tail_ms"] = {tail.value, "ms", tail.n, level};
  r.table["sweep_slow_quarter_ms"] = r.end_to_end["tail_ms"];
  AddQuality(sweep, gate, &r);
  for (const char* q : {"enc_geomean", "states_total", "area_total"}) {
    r.table[q] = r.end_to_end[q];
  }

  if (options.trace) {
    r.layers["explore.utilization"] = {
        busy_ms / (1000.0 * wall_s * std::max(1, options.threads)), "ratio",
        passes, ""};
    r.layers["explore.longest_cell_ms"] = {longest_ms, "ms", cells, ""};

    Tracer::Clear();
    Tracer::SetEnabled(true);
    std::vector<TracedCell> traced;
    std::uint64_t next_id = 0;
    std::int64_t traced_passes = 0;
    const auto traced_start = Clock::now();
    while (traced_passes == 0 || SecondsSince(traced_start) < loop_s) {
      std::vector<TracedCell> pass =
          RunTracedPass(PassSpecs(sweep, rng), options.threads, &next_id);
      ++traced_passes;
      std::vector<const ExploreRun*> runs;
      for (const TracedCell& c : pass) runs.push_back(&c.run);
      gate.Check(runs, &r);
      for (TracedCell& c : pass) {
        c.run.stg = ws::Stg("");  // keep memory flat across passes
        traced.push_back(std::move(c));
      }
    }
    Tracer::SetEnabled(false);

    SchedTotals sched;
    std::int64_t mem_active = 0;
    double artifact_bytes = 0.0;
    std::int64_t encoded = 0;
    double enc_cycles = 0.0;
    for (const TracedCell& c : traced) {
      ++sched.calls;
      sched.busy_ms += c.sched_ms;
      if (c.cap_verdict) {
        sched.cap_ms += c.sched_ms;
        ++sched.cap_calls;
      }
      if (c.run.ok) {
        sched.Add(c.run.stats);
        enc_cycles += c.run.enc_sim;
      }
      if (c.mem_active) ++mem_active;
      if (c.artifact_bytes > 0) {
        artifact_bytes += static_cast<double>(c.artifact_bytes);
        ++encoded;
      }
    }
    AddSchedLayers(sched, &r);
    r.layers["mem.active_cells"] = {
        static_cast<double>(mem_active) / static_cast<double>(traced_passes),
        "count", traced_passes, "per pass"};
    r.layers["io.artifact_bytes"] = {
        encoded > 0 ? artifact_bytes / static_cast<double>(encoded) : 0.0,
        "bytes", encoded, "mean per encoded run"};

    const std::vector<LayerRow> rows = FinishTrace(options.out_dir, &r);
    // Mean time per call of one span layer; absent layers are left for the
    // caller's "not exercised" fill.
    auto put = [&](const char* name, const char* layer, double scale,
                   const char* unit) {
      for (const LayerRow& row : rows) {
        if (row.layer == layer) {
          r.layers[name] = {
              scale * row.total_ms / static_cast<double>(row.count), unit,
              row.count, "mean per call"};
        }
      }
    };
    put("suite.build_ms", "suite.build", 1.0, "ms");
    put("lang.compile_us", "lang.compile", 1000.0, "us");
    put("mem.relax_us", "mem.relax", 1000.0, "us");
    put("sim.enc_ms", "sim.enc", 1.0, "ms");
    put("analysis.markov_us", "analysis.markov", 1000.0, "us");
    put("analysis.best_case_us", "analysis.best_case", 1000.0, "us");
    put("analysis.worst_case_us", "analysis.worst_case", 1000.0, "us");
    put("rtl.area_us", "rtl.area", 1000.0, "us");
    put("io.encode_us", "io.encode", 1000.0, "us");
    double sim_ms = 0.0;
    for (const LayerRow& row : rows) {
      if (row.layer == "sim.enc") sim_ms = row.total_ms;
    }
    r.layers["sim.cycles_per_ms"] = {
        sim_ms > 0 ? enc_cycles * sweep.groups.front().num_stimuli / sim_ms
                   : 0.0,
        "cycles/ms", static_cast<std::int64_t>(traced.size()),
        "simulated STG cycles per ms of MeasureExpectedCycles"};
  }

  r.failed = gate.unexpected;
  const double failed_share =
      static_cast<double>(gate.unexpected + gate.cap_verdicts) /
      static_cast<double>(std::max<std::int64_t>(1, gate.cells_checked));
  r.table["failed_share"] = {failed_share, "ratio", gate.cells_checked, ""};
  r.table["cap_verdicts"] = {static_cast<double>(gate.cap_verdicts), "count",
                             gate.cells_checked, "documented state-cap cells"};
  r.gate.push_back("cells checked against documented verdicts: " +
                   std::to_string(gate.cells_checked) +
                   " (trace E.N.C. cross-checked against the interpreter)");
  r.gate.push_back("passes byte-compared with the first pass: " +
                   std::to_string(gate.passes_compared));
  for (const std::string& key : gate.cap_cells_closed) {
    r.gate.push_back("note: documented cap cell " + key + " now closes");
  }
  r.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB", 1, ""};
  r.table["peak_rss_mb"] = r.end_to_end["peak_rss_mb"];
  return r;
}

}  // namespace perfbench
