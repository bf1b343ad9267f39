#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench.h"

namespace pipebench {
namespace trace {
namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
  uint32_t thread;
  Clock::time_point start;
  Clock::time_point end;
};

// Spans of one name kept per thread for the trace file. Serving clients
// open a span per request (hundreds of thousands a run); past this bound
// spans still count in the per-layer summary but are not written out.
constexpr size_t kMaxSpansPerName = 1 << 12;

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  uint64_t dropped = 0;
  std::map<const char*, size_t> kept_per_name;
  /// Per-layer totals over every span this thread closed.
  std::map<std::string, LayerSummary> layers;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{0};
std::mutex g_buffers_mu;
// Buffers outlive their threads: they are owned here, not by the
// thread, and read only after every stage thread has been joined.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded
Clock::time_point g_epoch = Clock::now();

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_op = 0;
thread_local ThreadBuffer* t_buffer = nullptr;
// Time covered by the children of each open span on this thread,
// innermost last; spans nest strictly within a thread.
thread_local std::vector<double> t_child_ms;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = g_next_thread.fetch_add(1);
    t_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

std::string Layer(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

double Us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace

void EnableTracing() {
  g_epoch = Clock::now();
  g_enabled.store(true);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!Enabled()) return;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  t_child_ms.push_back(0);
  start_ = Clock::now();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_current_span = parent_;
  const double ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  const double child_ms = t_child_ms.back();
  t_child_ms.pop_back();
  if (!t_child_ms.empty()) t_child_ms.back() += ms;
  ThreadBuffer* buffer = Buffer();
  LayerSummary& layer = buffer->layers[Layer(name_)];
  ++layer.calls;
  layer.total_ms += ms;
  layer.self_ms += ms - child_ms;
  if (buffer->kept_per_name[name_]++ >= kMaxSpansPerName) {
    ++buffer->dropped;
    return;
  }
  buffer->spans.push_back(
      {name_, id_, parent_, t_current_op, buffer->thread, start_, end});
}

Operation::Operation() {
  previous_ = t_current_op;
  if (Enabled()) t_current_op = g_next_id.fetch_add(1);
}

Operation::~Operation() { t_current_op = previous_; }

namespace {

std::vector<SpanRecord> KeptSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

}  // namespace

std::map<std::string, LayerSummary> Summarize() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::map<std::string, LayerSummary> out;
  for (const auto& buffer : g_buffers) {
    for (const auto& [name, l] : buffer->layers) {
      LayerSummary& sum = out[name];
      sum.calls += l.calls;
      sum.total_ms += l.total_ms;
      sum.self_ms += l.self_ms;
    }
  }
  return out;
}

size_t NumSpans() {
  size_t n = 0;
  for (const auto& [name, l] : Summarize()) n += static_cast<size_t>(l.calls);
  return n;
}

bool Write(const std::string& path, const std::string& workload,
           uint64_t seed, const MetricSet& extra) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pipebench: cannot write trace %s\n", path.c_str());
    return false;
  }
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& buffer : g_buffers) dropped += buffer->dropped;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<SpanRecord> spans = KeptSpans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"op\": %" PRIu64 "}}%s\n",
                 s.name, Layer(s.name).c_str(), s.thread, Us(s.start),
                 Us(s.end) - Us(s.start), s.id, s.parent, s.op,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"pipebench\": {\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"spans\": %zu, \"spans_not_written\": %" PRIu64
               ",\n\"layers\": {",
               workload.c_str(), seed, NumSpans(), dropped);
  const std::map<std::string, LayerSummary> layers = Summarize();
  size_t i = 0;
  for (const auto& [name, l] : layers) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"calls\": %" PRId64
                 ", \"total_ms\": %.3f, \"self_ms\": %.3f}",
                 i++ ? "," : "", name.c_str(), l.calls, l.total_ms, l.self_ms);
  }
  std::fprintf(f, "},\n\"metrics\": %s}}\n", extra.Json().c_str());
  const bool ok = std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "pipebench: writing %s failed\n", path.c_str());
  return ok;
}

}  // namespace trace
}  // namespace pipebench
