#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

struct Buffer {
  int tid = 0;
  std::vector<Span> spans;
  std::int32_t open = -1;  // innermost open span on this thread
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Buffers outlive their threads (pool threads may exit before the run ends).
std::vector<std::unique_ptr<Buffer>>& Buffers() {
  static std::vector<std::unique_ptr<Buffer>> buffers;
  return buffers;
}

Buffer* ThisThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto& all = Buffers();
    all.push_back(std::make_unique<Buffer>());
    all.back()->tid = static_cast<int>(all.size());
    buffer = all.back().get();
  }
  return buffer;
}

}  // namespace

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : Buffers()) {
    b->spans.clear();
    b->open = -1;
  }
}

std::vector<ThreadSpans> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<ThreadSpans> out;
  for (const auto& b : Buffers()) {
    if (!b->spans.empty()) out.push_back(ThreadSpans{b->tid, b->spans});
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* layer, std::uint64_t id) {
  if (!Tracer::enabled()) return;
  Buffer* b = ThisThreadBuffer();
  Span s;
  s.layer = layer;
  s.parent = b->open;
  s.id = id != 0 || b->open < 0 ? id
                                : b->spans[static_cast<std::size_t>(b->open)].id;
  s.start_ns = NowNs();
  index_ = static_cast<std::int32_t>(b->spans.size());
  b->spans.push_back(s);
  b->open = index_;
  buffer_ = b;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  auto* b = static_cast<Buffer*>(buffer_);
  Span& s = b->spans[static_cast<std::size_t>(index_)];
  s.end_ns = NowNs();
  b->open = s.parent;
}

double MeasureSpanCostNs() {
  constexpr int kSpans = 20000;
  const bool was_enabled = Tracer::enabled();
  Tracer::SetEnabled(true);
  std::vector<double> per_span;
  for (int batch = 0; batch < 7; ++batch) {
    const std::int64_t start = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      const ScopedSpan span("probe");
    }
    per_span.push_back(static_cast<double>(NowNs() - start) / kSpans);
    Tracer::Clear();
  }
  Tracer::SetEnabled(was_enabled);
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

std::vector<LayerRow> SummarizeLayers(const std::vector<ThreadSpans>& spans) {
  std::map<std::string, LayerRow> rows;
  for (const ThreadSpans& t : spans) {
    std::vector<std::int64_t> child_ns(t.spans.size(), 0);
    for (const Span& s : t.spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      LayerRow& row = rows[s.layer];
      row.layer = s.layer;
      ++row.count;
      row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      row.self_ms +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms != b.self_ms ? a.self_ms > b.self_ms : a.layer < b.layer;
  });
  return out;
}

std::string RenderLayerTable(const std::vector<LayerRow>& rows) {
  double self_sum = 0.0;
  for (const LayerRow& r : rows) self_sum += r.self_ms;
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-20s %9s %12s %12s %7s %12s\n", "layer",
                "count", "total_ms", "self_ms", "self%", "mean_us");
  out += line;
  for (const LayerRow& r : rows) {
    std::snprintf(line, sizeof(line), "%-20s %9lld %12.3f %12.3f %6.1f%% %12.2f\n",
                  r.layer.c_str(), static_cast<long long>(r.count), r.total_ms,
                  r.self_ms, self_sum > 0 ? 100.0 * r.self_ms / self_sum : 0.0,
                  r.count > 0 ? 1000.0 * r.total_ms / static_cast<double>(r.count)
                              : 0.0);
    out += line;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<ThreadSpans>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const ThreadSpans& t : spans) {
    for (const Span& s : t.spans) {
      const char* parent =
          s.parent >= 0 ? t.spans[static_cast<std::size_t>(s.parent)].layer : "";
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":\"%s\"}}",
                   first ? "" : ",\n", s.layer, s.layer, t.tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id), parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
