// In-memory span recorder for the traced run.
//
// A span is one call into a library layer, recorded from the benchmark's
// side of the call: layer name, start, end, the enclosing span on the same
// thread, and the request or cell id it belongs to. Spans are appended to a
// per-thread buffer (no lock after a thread's first span) and written out
// only when the run ends: as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly, and as a per-layer table of counts and
// self time (a span's duration minus the parts its child spans cover).
//
// Recording is off unless enabled, so the untraced runs pay one relaxed
// atomic load per ScopedSpan.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* layer = "";
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       // request or cell id; inherited from the parent
  std::int32_t parent = -1;   // index of the enclosing span in the same thread
};

struct ThreadSpans {
  int tid = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  // Drops every recorded span. Call only while no span is open.
  static void Clear();
  // A copy of every thread's spans. Call only while no span is open.
  static std::vector<ThreadSpans> Snapshot();
};

// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* layer, std::uint64_t id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void* buffer_ = nullptr;  // the thread's buffer while recording
  std::int32_t index_ = -1;
};

// Calls f() inside a span named `layer` and returns its result.
template <typename F>
auto InSpan(const char* layer, F&& f) {
  const ScopedSpan span(layer);
  return f();
}

// The cost of recording one span, in ns: the median over a few batches of
// spans opened and closed in a tight loop on the calling thread. Clears the
// recorder, so call it only while no span is open and none is wanted.
double MeasureSpanCostNs();

struct LayerRow {
  std::string layer;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

// Per-layer totals, sorted by self time (descending).
std::vector<LayerRow> SummarizeLayers(const std::vector<ThreadSpans>& spans);

// Aligned text: layer, count, total, self, self share of all self time, and
// mean per call.
std::string RenderLayerTable(const std::vector<LayerRow>& rows);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
bool WriteChromeTrace(const std::vector<ThreadSpans>& spans,
                      const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
