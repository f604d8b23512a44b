#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer of the simulator, recorded from
// the benchmark's own code around the public function it calls: name
// ("<layer>.<call>"), start, end, the enclosing span and the run it
// belongs to. Spans stay in memory while the benchmark runs and are
// written once at exit as a Chrome trace_event file, beside a per-layer
// self-time table. When recording is off (the untraced run) a Span costs
// one relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";   ///< "<layer>.<call>", a string literal
  std::uint64_t id = 0;    ///< 1-based, unique in the process
  std::uint64_t parent = 0;  ///< enclosing span id, 0 = none
  std::uint64_t run = 0;     ///< benchmark run (unit or spec) id
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  unsigned tid = 0;  ///< recording thread, numbered from 1
};

/// Turns recording on or off for spans opened afterwards.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Run id inherited by spans opened on the calling thread.
void set_run_id(std::uint64_t run);

/// Parent for spans opened on a thread with no open span of its own:
/// how spec bodies on campaign pool threads hang under the
/// Campaign::run span of the thread that started the campaign.
void set_cross_thread_parent(std::uint64_t id);

/// RAII span around one call.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when recording was off at construction).
  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
};

/// Every span closed so far, in closing order.
[[nodiscard]] std::vector<SpanRecord> recorded_spans();

/// Writes the spans as a Chrome trace_event JSON document.
void write_chrome_trace(const std::filesystem::path& file,
                        const std::vector<SpanRecord>& spans);

/// Per-layer table of span count, total and self time. A span's self
/// time is its duration minus the time its same-thread children cover;
/// the layer is the name up to the first '.'.
[[nodiscard]] std::string self_time_table(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
