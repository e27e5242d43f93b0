// The serve workloads (`serve_miss`, `serve_hot`): an in-process ServeServer
// on a Unix socket, driven through one ServeClient connection.
//
// The contract figures come from a closed loop: rounds that send every key
// once, each request as soon as the last is answered, so a latency is one
// round trip. The table's p50_ms_low and p99_ms_low come from an open loop:
// Poisson arrivals at a fixed absolute rate from a seeded generator. One
// generator thread releases each request at its due time into a client-side
// queue; the connection thread takes requests in due order and runs them
// (SCHEDULE, or SUBMIT then WAIT when traced). Open-loop latency is timed
// from the due time, so a stalled server charges every request queued
// behind it; the generator's own lateness and the backlog are reported, and
// a phase whose generator fell behind is marked invalid.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <unistd.h>

#include "adapt/profile.h"
#include "base/thread_pool.h"
#include "explore/explore.h"
#include "explore/run_codec.h"
#include "io/artifact_store.h"
#include "lang/lower.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ws::CellRequest;
using ws::ExploreRun;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The measurement method, the same for both serve workloads. The open-loop
// rate is workload data (perfbench/workloads.json).
constexpr double kOpenShare = 0.3;     // of the untraced window: open loop
constexpr double kLateLimitMs = 10.0;  // p99 generator lateness of a valid phase
constexpr int kWarmRequests = 200;     // closed-loop warm-up in set-up

// What the gate compares: a digest of the canonical row without timing.
std::size_t RowDigest(const ExploreRun& run) {
  return std::hash<std::string>{}(CanonicalRow(run));
}

// The in-process rows for requests: what RunExploreCell returns for each.
std::vector<ExploreRun> LocalRows(const std::vector<CellRequest>& requests,
                                  int threads) {
  std::vector<ExploreRun> rows(requests.size());
  ws::ThreadPool pool(threads);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    pool.Submit([&rows, &requests, i] {
      rows[i] = ws::RunExploreCell(requests[i].ToSpec(), requests[i].ToCell());
    });
  }
  pool.Wait();
  return rows;
}

// One served row to check against the in-process row of its request.
struct Check {
  CellRequest request;
  std::size_t served = 0;  // RowDigest of the served row
};

// Recomputes each checked request with RunExploreCell on `threads` workers
// and compares canonical rows. Returns how many differ; the first few are
// reported through `r`.
std::int64_t CheckRows(const std::vector<Check>& checks, int threads,
                       const std::string& what, WorkloadResult* r) {
  std::mutex mu;
  std::int64_t mismatched = 0;
  ws::ThreadPool pool(threads);
  for (const Check& check : checks) {
    pool.Submit([&, c = &check] {
      const std::string local = CanonicalRow(
          ws::RunExploreCell(c->request.ToSpec(), c->request.ToCell()));
      if (std::hash<std::string>{}(local) == c->served) return;
      std::lock_guard<std::mutex> lock(mu);
      if (++mismatched <= 3) {
        r->Fail(what + " differs from the in-process row " + local);
      }
    });
  }
  pool.Wait();
  return mismatched;
}

// --- traffic ---------------------------------------------------------------

struct Traffic {
  bool hot = false;
  // serve_hot: the fixed keys. serve_miss: templates that get a fresh seed.
  std::vector<CellRequest> keys;
  std::vector<CellRequest> inline_keys;  // serve_miss only
  double inline_share = 0.0;
  double profile_share = 0.0;            // serve_hot only
  std::vector<std::string> profiles;     // encoded, one per hot key
};

// One generated arrival.
struct Item {
  double due_s = 0.0;      // offset from the phase start
  std::uint32_t key = 0;   // index into Traffic::keys, or inline_keys
  bool is_inline = false;
  bool profile = false;    // a PROFILE report instead of a SCHEDULE
  std::uint64_t seed = 0;  // serve_miss: the request's fresh stimulus seed
};

CellRequest RequestOf(const Traffic& t, const Item& item) {
  CellRequest req = (item.is_inline ? t.inline_keys : t.keys)[item.key];
  // A fresh stimulus seed makes a distinct fingerprint: a real compute.
  if (!t.hot) req.seed = item.seed;
  return req;
}

struct Phase {
  std::string name;
  std::vector<Item> items;
};

// One request drawn from `rng`; `profiles` lets serve_hot draw PROFILE
// reports at their share.
Item DrawItem(const Traffic& t, bool profiles, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Item item;
  if (t.hot) {
    item.key = static_cast<std::uint32_t>(rng() % t.keys.size());
    item.profile = profiles && unit(rng) < t.profile_share;
  } else {
    item.is_inline = !t.inline_keys.empty() && unit(rng) < t.inline_share;
    const std::size_t n = item.is_inline ? t.inline_keys.size() : t.keys.size();
    item.key = static_cast<std::uint32_t>(rng() % n);
    item.seed = rng() >> 1;
  }
  return item;
}

// Poisson arrivals at `rate` for `seconds`, all drawn from `rng`.
Phase MakePhase(const std::string& name, const Traffic& t, double rate,
                double seconds, std::mt19937_64& rng) {
  Phase p;
  p.name = name;
  std::exponential_distribution<double> gap(rate);
  for (double at = gap(rng); at < seconds; at += gap(rng)) {
    Item item = DrawItem(t, true, rng);
    item.due_s = at;
    p.items.push_back(item);
  }
  return p;
}

// One closed-loop round: every key once (serve_miss: every template and
// inline source, each with a fresh seed), in a seeded order. No PROFILE
// reports: their background re-schedules would take the one server worker
// from the requests being timed.
Phase MakeRound(const Traffic& t, std::mt19937_64& rng) {
  Phase p;
  p.name = "closed";
  for (const bool is_inline : {false, true}) {
    const std::size_t n = (is_inline ? t.inline_keys : t.keys).size();
    for (std::size_t k = 0; k < n; ++k) {
      Item item;
      item.key = static_cast<std::uint32_t>(k);
      item.is_inline = is_inline;
      item.seed = rng() >> 1;
      p.items.push_back(item);
    }
  }
  std::shuffle(p.items.begin(), p.items.end(), rng);
  return p;
}

// --- the open loop ---------------------------------------------------------

// What the gate keeps of one reply: its item and the served row's digest.
struct Reply {
  std::uint32_t item = 0;
  std::size_t digest = 0;
  std::string error;  // the served run's error when it did not close
};

// What the per-layer metrics read from one reply of a traced phase.
struct TracedReply {
  bool cache_hit = false;
  bool ok = false;
  double wall_ms = 0.0;  // the reply's own compute time
  double wait_us = 0.0;  // the WAIT round trip
  ws::ScheduleStats stats;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // SCHEDULE requests; +inf when failed
  std::vector<double> late_ms;     // generator lateness per arrival
  std::vector<double> submit_us, wait_us, profile_us;
  std::vector<Reply> replies;
  std::vector<TracedReply> traced;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t backlog_end = 0;   // queued + in flight when generation ended
  std::int64_t queue_depth_max = 0;
  std::vector<std::string> errors;
};

class Load {
 public:
  Load(std::vector<ws::ServeClient>* clients, ws::MetricsRegistry* metrics,
       const Traffic* traffic)
      : clients_(clients), metrics_(metrics), traffic_(traffic) {}

  // Sends the phase's requests one after another over the first connection,
  // each as soon as the last is answered: a latency is one round trip.
  PhaseResult RunClosed(const Phase& phase) {
    PhaseResult out;
    for (std::size_t i = 0; i < phase.items.size(); ++i) {
      Serve((*clients_)[0], phase, i, Clock::now(), false, &out);
    }
    return out;
  }

  // Runs one phase open loop to completion (every request answered).
  PhaseResult RunOpen(const Phase& phase, bool traced) {
    PhaseResult out;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, Clock::time_point>> queue;
    bool done = false;
    std::int64_t in_flight = 0;
    ws::Gauge* depth = metrics_->gauge("serve.queue_depth");

    std::vector<PhaseResult> per_conn(clients_->size());
    std::vector<std::thread> conns;
    for (std::size_t c = 0; c < clients_->size(); ++c) {
      conns.emplace_back([&, c] {
        ws::ServeClient& client = (*clients_)[c];
        PhaseResult& mine = per_conn[c];
        for (;;) {
          std::pair<std::size_t, Clock::time_point> next;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !queue.empty() || done; });
            if (queue.empty()) return;
            next = queue.front();
            queue.pop_front();
            ++in_flight;
          }
          Serve(client, phase, next.first, next.second, traced, &mine);
          std::lock_guard<std::mutex> lock(mu);
          --in_flight;
        }
      });
    }

    LeavePinnedCpu();  // the connection threads above stay on the server's CPU
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (const Item& item : phase.items) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(item.due_s));
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      out.queue_depth_max = std::max(out.queue_depth_max, depth->value());
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.emplace_back(static_cast<std::size_t>(&item - phase.items.data()),
                           due);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      out.backlog_end = static_cast<std::int64_t>(queue.size()) + in_flight;
      done = true;
    }
    cv.notify_all();
    for (std::thread& t : conns) t.join();
    ReturnToPinnedCpu();

    for (PhaseResult& p : per_conn) {
      auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(out.latency_ms, p.latency_ms);
      append(out.submit_us, p.submit_us);
      append(out.wait_us, p.wait_us);
      append(out.profile_us, p.profile_us);
      for (Reply& r : p.replies) out.replies.push_back(std::move(r));
      for (TracedReply& r : p.traced) out.traced.push_back(std::move(r));
      out.attempted += p.attempted;
      out.failed += p.failed;
      out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
    }
    return out;
  }

 private:
  void Serve(ws::ServeClient& client, const Phase& phase, std::size_t index,
             Clock::time_point due, bool traced, PhaseResult* out) {
    const Item& item = phase.items[index];
    const CellRequest request = RequestOf(*traffic_, item);
    ++out->attempted;
    if (item.profile) {
      const auto t = Clock::now();
      ws::Result<std::string> ack = InSpan("adapt.report", [&] {
        ws::Result<ws::BranchProfile> profile =
            ws::DecodeProfilePayload(traffic_->profiles[item.key]);
        return profile.ok() ? client.ReportProfile(request, *profile)
                            : ws::Result<std::string>(profile.status());
      });
      out->profile_us.push_back(UsSince(t));
      if (!ack.ok()) {
        ++out->failed;
        out->errors.push_back("PROFILE: " + ack.error());
      }
      return;
    }
    double wait_us = 0.0;
    auto submit_then_wait = [&]() -> ws::Result<ws::ScheduleArtifact> {
      const ScopedSpan root("request", index + 1);
      auto t = Clock::now();
      ws::Result<ws::Ticket> ticket =
          InSpan("serve.submit", [&] { return client.Submit(request); });
      out->submit_us.push_back(UsSince(t));
      if (!ticket.ok()) return ticket.status();
      t = Clock::now();
      ws::Result<ws::ScheduleArtifact> reply =
          InSpan("serve.wait", [&] { return client.Wait(*ticket); });
      wait_us = UsSince(t);
      out->wait_us.push_back(wait_us);
      return reply;
    };
    ws::Result<ws::ScheduleArtifact> reply =
        traced ? submit_then_wait() : client.Schedule(request);
    const double latency =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    if (!reply.ok()) {
      // Non-OK replies, transport errors and sheds all miss the limit.
      ++out->failed;
      out->latency_ms.push_back(kInf);
      if (out->errors.size() < 5) out->errors.push_back(reply.error());
      return;
    }
    out->latency_ms.push_back(latency);
    const ExploreRun& run = reply->run;
    out->replies.push_back(Reply{static_cast<std::uint32_t>(index),
                                 RowDigest(run), run.ok ? "" : run.error});
    if (traced) {
      out->traced.push_back(
          TracedReply{reply->cache_hit, run.ok, run.wall_ms, wait_us, run.stats});
    }
  }

  std::vector<ws::ServeClient>* clients_;
  ws::MetricsRegistry* metrics_;
  const Traffic* traffic_;
};

// --- set-up ----------------------------------------------------------------

CellRequest BaseRequest(const ws::DesignSpec& d, ws::SpeculationMode mode,
                        int stimuli) {
  CellRequest req;  // the defaults ws_explore --server and ws_client send
  req.design = d;
  req.mode = mode;
  req.num_stimuli = stimuli;
  return req;
}

Traffic BuildTraffic(const WorkloadConfig& c) {
  Traffic t;
  t.hot = c.Str("kind") == "hot";
  const int stimuli = c.Int("stimuli");
  std::vector<ws::SpeculationMode> modes;
  for (const std::string& m : c.List("modes")) modes.push_back(ParseMode(m));
  for (const std::string& name : c.List("designs")) {
    for (const ws::SpeculationMode m : modes) {
      t.keys.push_back(BaseRequest(ws::DesignSpec{name, ""}, m, stimuli));
    }
  }
  if (!t.hot) {
    // "<stem>.beh/<mode>" cells, sent as inline sources.
    for (const std::string& key : c.List("inline")) {
      const std::size_t dot = key.find(".beh/");
      if (dot == std::string::npos) throw ws::Error("bad inline cell " + key);
      const std::string stem = key.substr(0, dot);
      const ws::DesignSpec d{stem + ".beh", ReadDesignSource(stem)};
      t.inline_keys.push_back(
          BaseRequest(d, ParseMode(key.substr(dot + 5)), stimuli));
    }
    t.inline_share = c.Num("inline_share");
  } else {
    t.profile_share = c.Num("profile_share");
  }
  return t;
}

struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::string dir;
  std::unique_ptr<ws::ServeServer> server;
  std::vector<ws::ServeClient> clients;
  double warm_start_ms = 0.0;

  void Stop() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
  }
  ~Instance() {
    Stop();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

// Computes the hot keys' rows in-process and writes them to the store the
// server warm-starts from. Returns each row's digest, for the gate.
std::vector<std::size_t> PopulateStore(const Traffic& t,
                                       const std::string& store_dir, int threads,
                                       std::vector<double>* put_us,
                                       std::vector<double>* get_us,
                                       std::vector<double>* build_ms) {
  const std::vector<ExploreRun> rows = LocalRows(t.keys, threads);
  std::vector<ws::Fp128> keys;
  for (const CellRequest& req : t.keys) {
    const ws::ExploreSpec spec = req.ToSpec();
    const ws::ExploreCell cell = req.ToCell();
    const auto tb = Clock::now();
    ws::Result<ws::Benchmark> b = ws::BuildExploreDesign(cell.design, spec);
    build_ms->push_back(MsSince(tb));
    if (!b.ok()) throw ws::Error("hot key build: " + b.error());
    const ws::Allocation alloc = ws::BuildExploreAllocation(*b, cell.alloc).value();
    keys.push_back(ws::ExploreCellKey(
        spec, cell, ws::MakeCellScheduleRequest(spec, *b, alloc, cell)));
  }
  ws::ArtifactStoreOptions opts;
  opts.dir = store_dir;
  auto store = ws::ArtifactStore::Open(opts).value();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string bytes = ws::EncodeRunArtifact(rows[i]);
    const auto tp = Clock::now();
    const ws::Status s = store->Put(keys[i], bytes);
    put_us->push_back(UsSince(tp));
    if (!s.ok()) throw ws::Error("store put: " + s.message());
  }
  for (const ws::Fp128& key : keys) {
    const auto tg = Clock::now();
    const bool found = store->Get(key).has_value();
    get_us->push_back(UsSince(tg));
    if (!found) throw ws::Error("store get missed");
  }
  std::vector<std::size_t> digests;
  for (const ExploreRun& row : rows) digests.push_back(RowDigest(row));
  return digests;
}

std::vector<std::string> BuildProfiles(const Traffic& t) {
  std::vector<std::string> out;
  for (const CellRequest& req : t.keys) {
    const ws::Benchmark b =
        ws::BuildExploreDesign(req.design, req.ToSpec()).value();
    out.push_back(
        ws::EncodeProfilePayload(ws::ProfileFromInterp(b.graph, b.stimuli)));
  }
  return out;
}

// The server listens on a Unix socket named relative to the working
// directory (socket paths are limited to 107 bytes). Its accepted TCP
// sockets do not set TCP_NODELAY, so replies over loopback TCP stall on
// delayed ACKs; the Unix socket measures the server, not that stall.
std::unique_ptr<Instance> StartInstance(const std::string& dir,
                                        const std::string& socket_path,
                                        int threads) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  ws::ServerOptions so;
  so.unix_path = socket_path;
  so.shards = threads;
  so.workers = threads;
  so.store_dir = dir + "/store";
  inst->server = std::make_unique<ws::ServeServer>(so);
  const auto t = Clock::now();
  const ws::Status s = inst->server->Start();
  inst->warm_start_ms = MsSince(t);
  if (!s.ok()) throw ws::Error("server start: " + s.message());
  for (int i = 0; i < threads; ++i) {
    inst->clients.push_back(ws::ServeClient::Connect("unix:" + socket_path).value());
  }
  return inst;
}

// The server's own counters (its MetricsRegistry), read while it runs.
struct ServerCounters {
  std::int64_t coalesced = 0, sched_runs = 0, overloaded = 0;
  std::int64_t adapt_profiles = 0, adapt_swaps = 0, adapt_rejected = 0;
  std::int64_t resched_count = 0, resched_us = 0;

  static ServerCounters Read(ws::MetricsRegistry& m) {
    ServerCounters c;
    c.coalesced = m.counter("serve.coalesced")->value();
    c.sched_runs = m.counter("serve.sched_runs")->value();
    c.overloaded = m.counter("serve.responses_overloaded")->value();
    c.adapt_profiles = m.counter("serve.adapt_profiles")->value();
    c.adapt_swaps = m.counter("serve.adapt_swaps")->value();
    c.adapt_rejected = m.counter("serve.adapt_rejected")->value();
    c.resched_count = m.histogram("serve.adapt_resched_us")->count();
    c.resched_us = m.histogram("serve.adapt_resched_us")->sum();
    return c;
  }
  ServerCounters Minus(const ServerCounters& o) const {
    ServerCounters d;
    d.coalesced = coalesced - o.coalesced;
    d.sched_runs = sched_runs - o.sched_runs;
    d.overloaded = overloaded - o.overloaded;
    d.adapt_profiles = adapt_profiles - o.adapt_profiles;
    d.adapt_swaps = adapt_swaps - o.adapt_swaps;
    d.adapt_rejected = adapt_rejected - o.adapt_rejected;
    d.resched_count = resched_count - o.resched_count;
    d.resched_us = resched_us - o.resched_us;
    return d;
  }
};

}  // namespace

WorkloadResult RunServeWorkload(const WorkloadConfig& config,
                                const RunOptions& options) {
  WorkloadResult r;
  r.workload = config.name;
  std::mt19937_64 rng(options.seed);
  const int threads = options.threads;
  const std::string tmp_root = options.out_dir + "/tmp-" +
                               std::to_string(::getpid()) + "-" + config.name;

  Traffic traffic;
  std::unique_ptr<Instance> inst;
  std::vector<std::size_t> hot_digests;
  std::vector<double> setup_s, put_us, get_us, build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (inst) inst.reset();  // stop the previous set-up's server
    const auto t = Clock::now();
    traffic = BuildTraffic(config);
    const std::string dir = tmp_root + "-" + std::to_string(rep);
    std::filesystem::create_directories(dir + "/store");
    if (traffic.hot) {
      hot_digests = PopulateStore(traffic, dir + "/store", threads, &put_us,
                                  &get_us, &build_ms);
      traffic.profiles = BuildProfiles(traffic);
    }
    inst = StartInstance(dir, options.out_dir + "/s" + std::to_string(::getpid()) +
                                  ".sock",
                         threads);
    // Warm: a closed-loop burst over every connection.
    std::vector<std::thread> warm;
    std::vector<std::string> warm_errors(inst->clients.size());
    for (std::size_t c = 0; c < inst->clients.size(); ++c) {
      warm.emplace_back([&, c] {
        std::mt19937_64 wrng(options.seed * 7919 + c);
        for (int i = static_cast<int>(c); i < kWarmRequests; i += threads) {
          CellRequest req = traffic.keys[wrng() % traffic.keys.size()];
          if (!traffic.hot) req.seed = (wrng() >> 1) | 1;
          ws::Result<ws::ScheduleArtifact> a = inst->clients[c].Schedule(req);
          if (!a.ok()) warm_errors[c] = a.error();
        }
      });
    }
    for (std::thread& w : warm) w.join();
    for (const std::string& e : warm_errors) {
      if (!e.empty()) r.Fail("warm-up request failed: " + e);
    }
    setup_s.push_back(SecondsSince(t));
  }
  r.end_to_end["setup_s"] = {Median(setup_s), "s",
                             static_cast<std::int64_t>(setup_s.size()), ""};
  r.table["setup_s"] = r.end_to_end["setup_s"];

  ws::MetricsRegistry& metrics = inst->server->metrics();
  Load load(&inst->clients, &metrics, &traffic);
  const double rate_low = config.Num("rate_low");
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;

  std::vector<Phase> phases;  // kept for the gate
  std::vector<PhaseResult> results;
  auto keep = [&](Phase phase, PhaseResult res) {
    for (const std::string& e : res.errors) r.errors.push_back(phase.name + ": " + e);
    phases.push_back(std::move(phase));
    results.push_back(std::move(res));
    return results.size() - 1;
  };
  // The contract figures: closed loop over one connection, in rounds that
  // send every key once. Each key's latency is read at its fast decile over
  // the rounds, as the sweeps read each cell. A round's time is the keys'
  // sum; the typical request is the median key, and the tail the mean of
  // the slowest quarter of keys.
  std::map<std::pair<bool, std::uint32_t>, std::vector<double>> by_key;
  std::int64_t rounds = 0;
  const auto closed_start = Clock::now();
  while (rounds == 0 ||
         SecondsSince(closed_start) < (1.0 - kOpenShare) * untraced_s) {
    Phase phase = MakeRound(traffic, rng);
    PhaseResult res = load.RunClosed(phase);
    for (std::size_t i = 0; i < res.latency_ms.size(); ++i) {
      const Item& item = phase.items[i];
      by_key[{item.is_inline, item.key}].push_back(res.latency_ms[i]);
    }
    ++rounds;
    keep(std::move(phase), std::move(res));
  }
  std::vector<double> key_fast;
  double round_ms = 0.0;
  for (const auto& [key, v] : by_key) {
    key_fast.push_back(ExactPercentile(v, kFastLevel).value);
    round_ms += key_fast.back();
  }
  const std::string of_rounds = ", fast decile per key over " +
                                std::to_string(rounds) + " closed-loop rounds";
  r.end_to_end["throughput_per_s"] = {
      1000.0 * static_cast<double>(key_fast.size()) / round_ms, "1/s", rounds,
      "requests per second over one connection" + of_rounds};
  r.end_to_end["latency_ms"] = {Median(key_fast), "ms", rounds,
                                "median key" + of_rounds};
  r.end_to_end["tail_ms"] = {MeanOfTopQuarter(key_fast), "ms", rounds,
                             "mean of the slowest quarter of keys" + of_rounds};
  r.table["closed_rps"] = r.end_to_end["throughput_per_s"];
  r.table["closed_key_p50_ms"] = r.end_to_end["latency_ms"];
  r.table["closed_slow_quarter_ms"] = r.end_to_end["tail_ms"];

  // Open loop at the fixed low rate, with PROFILE reports at their share:
  // latency timed from each request's due time, exact percentiles over the
  // raw samples.
  Phase open_phase =
      MakePhase("open", traffic, rate_low, kOpenShare * untraced_s, rng);
  PhaseResult open_result = load.RunOpen(open_phase, false);
  const std::size_t open = keep(std::move(open_phase), std::move(open_result));
  const Percentile p50_low = ExactPercentile(results[open].latency_ms, 0.5);
  const Percentile p99_low = TailPercentile(results[open].latency_ms, 0.99);
  const Percentile late_low = ExactPercentile(results[open].late_ms, 0.99);
  auto level = [](const Percentile& p) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "p%.1f, %lld beyond", 100 * p.level,
                  static_cast<long long>(p.beyond));
    return std::string(buf);
  };
  // A phase whose generator fell behind is marked, not dropped: latency is
  // timed from due times, so it still counts the stall.
  const bool open_late = late_low.value > kLateLimitMs;
  const std::string invalid = open_late ? ", INVALID: generator fell behind" : "";
  r.table["p50_ms_low"] = {p50_low.value, "ms", p50_low.n, level(p50_low) + invalid};
  r.table["p99_ms_low"] = {p99_low.value, "ms", p99_low.n, level(p99_low) + invalid};
  r.table["gen_late_ms_low"] = {late_low.value, "ms", late_low.n,
                                "p99 generator lateness"};
  if (open_late) r.gate.push_back("INVALID: the generator fell behind in the open loop");

  // Traced half: open loop at the same rate, SUBMIT and WAIT timed apart.
  const ServerCounters before = ServerCounters::Read(metrics);
  ServerCounters after = before;
  std::size_t traced = 0;
  if (options.trace) {
    Tracer::Clear();
    Tracer::SetEnabled(true);
    Phase phase = MakePhase("traced", traffic, rate_low, options.seconds / 2, rng);
    PhaseResult result = load.RunOpen(phase, true);
    traced = keep(std::move(phase), std::move(result));
    Tracer::SetEnabled(false);
    after = ServerCounters::Read(metrics);
  }

  // Quality probe, outside the timed window: fixed keys through the server,
  // with area on.
  std::vector<CellRequest> probe;
  for (const std::string& key : config.List("quality")) {
    const std::size_t slash = key.find('/');
    CellRequest req;
    req.design = ws::DesignSpec{key.substr(0, slash), ""};
    req.mode = ParseMode(key.substr(slash + 1));
    req.measure_area = true;
    probe.push_back(req);
  }
  std::vector<ExploreRun> probe_replies;
  for (const CellRequest& req : probe) {
    ws::Result<ws::ScheduleArtifact> a = inst->clients[0].Schedule(req);
    if (!a.ok()) {
      r.Fail("quality probe failed: " + a.error());
      probe_replies.emplace_back();
    } else {
      probe_replies.push_back(std::move(a->run));
    }
  }

  std::int64_t queue_depth_max = 0;
  for (const PhaseResult& p : results) {
    queue_depth_max = std::max(queue_depth_max, p.queue_depth_max);
  }
  inst->Stop();
  // The process peak so far: the server, the traffic and the digests the
  // gate keeps, before the gate recomputes any row in-process.
  r.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB", 1, "before the gate"};
  r.table["peak_rss_mb"] = r.end_to_end["peak_rss_mb"];

  // --- the gate: every served row against the in-process row -------------
  std::int64_t compared = 0, mismatched = 0, attempted = 0, failed = 0;
  std::vector<Check> checks;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    attempted += results[pi].attempted;
    failed += results[pi].failed;
    for (const Reply& reply : results[pi].replies) {
      if (!reply.error.empty()) {
        ++failed;
        if (r.errors.size() < 8) r.errors.push_back("served run failed: " + reply.error);
      }
      const Item& item = phases[pi].items[reply.item];
      ++compared;
      if (!traffic.hot) {
        checks.push_back(Check{RequestOf(traffic, item), reply.digest});
      } else if (reply.digest != hot_digests[item.key]) {
        if (++mismatched <= 3) {
          const CellRequest& key = traffic.keys[item.key];
          r.Fail("hot reply differs from the in-process row " +
                 CanonicalRow(ws::RunExploreCell(key.ToSpec(), key.ToCell())));
        }
      }
    }
  }
  UnpinCpus();
  mismatched += CheckRows(checks, GateThreads(), "miss reply", &r);
  checks.clear();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    checks.push_back(Check{probe[i], RowDigest(probe_replies[i])});
  }
  compared += static_cast<std::int64_t>(checks.size());
  mismatched += CheckRows(checks, GateThreads(), "quality probe", &r);
  std::vector<double> encs;
  double states = 0.0, area = 0.0;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (!probe_replies[i].ok || probe_replies[i].enc_sim <= 0.0) {
      r.Fail("quality cell " + probe[i].design.name + " did not close");
      continue;
    }
    encs.push_back(probe_replies[i].enc_sim);
    states += static_cast<double>(probe_replies[i].states);
    area += probe_replies[i].area;
  }
  const auto nq = static_cast<std::int64_t>(probe.size());
  r.end_to_end["enc_geomean"] = {Geomean(encs), "cycles", nq, ""};
  r.end_to_end["states_total"] = {states, "count", nq, ""};
  r.end_to_end["area_total"] = {area, "GE", nq, ""};
  for (const char* q : {"enc_geomean", "states_total", "area_total"}) {
    r.table[q] = r.end_to_end[q];
  }
  r.gate.push_back("served rows byte-compared with in-process RunExploreCell rows: " +
                   std::to_string(compared) + " (" + std::to_string(mismatched) +
                   " differ)");
  r.attempted = attempted;
  r.failed = failed;
  r.table["failed_share"] = {
      static_cast<double>(failed) / static_cast<double>(std::max<std::int64_t>(1, attempted)),
      "ratio", attempted, ""};
  if (failed > 0) r.Fail(std::to_string(failed) + " requests failed");
  if (mismatched > 0) {
    r.Fail(std::to_string(mismatched) + " served rows differ from in-process rows");
  }

  if (options.trace) {
    const PhaseResult& tp = results[traced];
    const std::vector<double>& submit = tp.submit_us;
    const std::vector<double>& wait = tp.wait_us;
    const std::vector<double>& prof = tp.profile_us;
    auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto n = [](const std::vector<double>& v) {
      return static_cast<std::int64_t>(v.size());
    };
    SchedTotals sched;
    std::vector<double> compute, queue;
    std::int64_t traced_replies = 0, traced_hits = 0;
    for (const TracedReply& reply : tp.traced) {
      ++traced_replies;
      if (reply.cache_hit) {
        ++traced_hits;
        continue;
      }
      ++sched.calls;
      sched.busy_ms += static_cast<double>(reply.stats.phase.total_ns) / 1e6;
      if (reply.ok) sched.Add(reply.stats);
      compute.push_back(reply.wall_ms);
      // Queue time: what WAIT took beyond the reply's own compute time.
      queue.push_back(reply.wait_us / 1000.0 - reply.wall_ms);
    }
    AddSchedLayers(sched, &r);
    r.layers["serve.submit_us"] = {mean(submit), "us", n(submit), "mean"};
    r.layers["serve.wait_us"] = {mean(wait), "us", n(wait), "mean"};
    r.layers["serve.compute_ms"] = {mean(compute), "ms", n(compute),
                                    "mean reply wall_ms over misses"};
    r.layers["serve.queue_ms"] = {mean(queue), "ms", n(queue),
                                  "mean WAIT minus reply wall_ms over misses"};
    r.layers["serve.cache_hit_ratio"] = {
        traced_replies > 0 ? static_cast<double>(traced_hits) /
                                 static_cast<double>(traced_replies)
                           : 0.0,
        "ratio", traced_replies, ""};
    const ServerCounters d = after.Minus(before);
    r.layers["serve.coalesced"] = {static_cast<double>(d.coalesced),
                                   "count", traced_replies, "traced half"};
    r.layers["serve.sched_runs"] = {static_cast<double>(d.sched_runs),
                                    "count", traced_replies, "traced half"};
    r.layers["serve.overloaded"] = {
        static_cast<double>(d.overloaded), "count",
        traced_replies, "traced half"};
    r.layers["serve.queue_depth_max"] = {static_cast<double>(queue_depth_max),
                                         "count", n(tp.late_ms), "sampled at each arrival"};
    r.layers["serve.backlog"] = {
        static_cast<double>(tp.backlog_end), "count", 1,
        "queued + in flight when generation ended"};
    const Percentile late99 = ExactPercentile(tp.late_ms, 0.99);
    r.layers["serve.gen_late_ms"] = {late99.value, "ms", late99.n,
                                     "p99 generator lateness"};
    r.layers["adapt.report_us"] = {mean(prof), "us", n(prof), "mean PROFILE round trip"};
    const auto profiles = static_cast<double>(d.adapt_profiles);
    const auto swaps = static_cast<double>(d.adapt_swaps);
    const auto rejected = static_cast<double>(d.adapt_rejected);
    r.layers["adapt.profiles"] = {profiles, "count", n(prof), "traced half"};
    r.layers["adapt.swaps"] = {swaps, "count", n(prof), "traced half"};
    r.layers["adapt.swap_ratio"] = {
        swaps + rejected > 0 ? swaps / (swaps + rejected) : 0.0, "ratio",
        static_cast<std::int64_t>(swaps + rejected), "swaps / re-schedules judged"};
    r.layers["adapt.resched_ms"] = {
        d.resched_count > 0 ? static_cast<double>(d.resched_us) / 1000.0 /
                                  static_cast<double>(d.resched_count)
                            : 0.0,
        "ms", d.resched_count, "mean, traced half"};
    r.layers["io.warm_start_ms"] = {inst->warm_start_ms, "ms", 1,
                                    "ServeServer::Start, store replay included"};
    if (traffic.hot) {
      r.layers["io.store_put_us"] = {mean(put_us), "us", n(put_us),
                                     "mean, populating the store in set-up"};
      r.layers["io.store_get_us"] = {mean(get_us), "us", n(get_us),
                                     "mean, reading it back in set-up"};
      r.layers["suite.build_ms"] = {mean(build_ms), "ms", n(build_ms),
                                    "BuildExploreDesign per hot key, in-process"};
    }
    // Encoding the probe replies times the io layer's codec from outside.
    {
      std::vector<double> enc_us;
      double bytes = 0.0;
      for (const ExploreRun& row : probe_replies) {
        const auto t = Clock::now();
        bytes += static_cast<double>(ws::EncodeRunArtifact(row).size());
        enc_us.push_back(UsSince(t));
      }
      r.layers["io.encode_us"] = {mean(enc_us), "us", n(enc_us), "mean, probe rows"};
      r.layers["io.artifact_bytes"] = {
          probe_replies.empty() ? 0.0 : bytes / static_cast<double>(probe_replies.size()),
          "bytes", n(enc_us), "mean, probe rows"};
    }
    if (!traffic.hot) {
      // Client-side frontend and build cost of the miss traffic's inputs.
      std::vector<double> compile_us, build;
      for (const CellRequest& req : traffic.inline_keys) {
        const auto t = Clock::now();
        (void)ws::CompileBehavioral(req.design.name, req.design.source);
        compile_us.push_back(UsSince(t));
      }
      for (const CellRequest& req : traffic.keys) {
        const auto t = Clock::now();
        (void)ws::BuildExploreDesign(req.design, req.ToSpec());
        build.push_back(MsSince(t));
      }
      r.layers["lang.compile_us"] = {mean(compile_us), "us", n(compile_us),
                                     "inline sources, client side"};
      r.layers["suite.build_ms"] = {mean(build), "ms", n(build),
                                    "BuildExploreDesign per key, in-process"};
    }
    FinishTrace(options.out_dir, &r);
  }
  return r;
}

}  // namespace perfbench
