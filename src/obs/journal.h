#ifndef LOGMINE_OBS_JOURNAL_H_
#define LOGMINE_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace logmine::obs {

class MetricsRegistry;

/// Nanoseconds on the process-wide steady clock, relative to the first
/// call (so event timestamps are small and monotonic). Thread-safe.
int64_t MonotonicNowNs();

/// Small dense id of the calling thread (assigned on first use, stable
/// for the thread's lifetime) — names the span of every TraceSpan event.
uint32_t CurrentTraceThreadId();

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
/// every control character are escaped. The one escaper of every obs
/// JSON export.
void AppendJsonString(std::string_view s, std::string* out);

/// One typed key/value of a journal event. Values are pre-rendered JSON
/// fragments so emission is a single concatenation; build them through
/// the factories, never by hand.
struct JournalField {
  std::string key;
  std::string value;  ///< rendered JSON (quoted string, number, bool)

  static JournalField Str(std::string_view key, std::string_view value);
  static JournalField Num(std::string_view key, int64_t value);
  static JournalField Real(std::string_view key, double value);
  static JournalField Flag(std::string_view key, bool value);
};

/// Knobs of one journal.
struct JournalOptions {
  /// JSONL file to append to; empty keeps the journal memory-only (the
  /// tail ring still works, so introspection and postmortems do too).
  std::string path;
  /// Rotation threshold: when the current file exceeds this many bytes
  /// the journal rotates (`path` -> `path.1` -> ... -> dropped).
  size_t max_bytes_per_file = 4u << 20;
  /// Rotated generations kept besides the live file.
  size_t max_rotated_files = 2;
};

/// Crash-safe structured event journal: every stage / shard / epoch /
/// publish / quarantine / retry / breaker / health boundary appends one
/// wide JSONL event carrying the process-unique `run_id` and a
/// hierarchical span id ("sweep-1/d0.r2/a1"), flushed line-by-line so
/// the file is truthful up to the last boundary even after SIGKILL.
/// It is the process's only event recorder: every closed TraceSpan
/// (obs.h) lands here too, as an event named after the span under the
/// span id "thread-<tid>" and carrying `dur_ns`. So one stream answers
/// both "what was hot" and "what happened, in which attempt of which
/// shard of which run" — and, when file-backed, survives the process.
///
/// Thread-safe: one short mutex per event; events are boundary- or
/// stage-granular (per stage/epoch/query, never per log line), so the
/// lock is cold.
class Journal {
 public:
  /// Most-recent rendered lines kept in memory for `Tail()` — the
  /// bounded ring introspection, postmortems and the Chrome trace read.
  static constexpr size_t kTailCapacity = 4096;

  explicit Journal(const JournalOptions& options = {},
                   MetricsRegistry* metrics = nullptr);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Process-unique id stamped on every event, so lines from interleaved
  /// or restarted runs never correlate by accident.
  const std::string& run_id() const { return run_id_; }

  /// Mints a new root span id "<prefix>-<n>" (n counts per journal):
  /// children append path segments by concatenation, e.g.
  /// BeginRootSpan("sweep") -> "sweep-1", shard cell -> "sweep-1/d0.r2",
  /// attempt 3 -> "sweep-1/d0.r2/a3".
  std::string BeginRootSpan(std::string_view prefix);

  /// Appends one event: {"ts_ns":..,"run":..,"span":..,"event":..,
  /// <fields>}. Flushes to disk before returning.
  void Emit(std::string_view span, std::string_view event,
            const std::vector<JournalField>& fields = {});

  /// The most recent `n` rendered lines (oldest first), capped by
  /// kTailCapacity.
  std::vector<std::string> Tail(size_t n) const;

  /// Events emitted through this journal (including ones rotated out of
  /// the file or the ring).
  uint64_t events_emitted() const;
  /// File rotations performed.
  uint64_t rotations() const;
  const JournalOptions& options() const { return options_; }

 private:
  void RotateLocked();

  const JournalOptions options_;
  MetricsRegistry* const metrics_;  ///< may be null
  const std::string run_id_;
  std::atomic<uint64_t> next_span_{0};

  mutable std::mutex mu_;
  std::ofstream file_;
  size_t bytes_written_ = 0;
  uint64_t events_ = 0;
  uint64_t rotations_ = 0;
  /// The newest kTailCapacity lines; event k lives at k % kTailCapacity.
  std::vector<std::string> ring_;
};

/// Converts journal JSONL (one run's worth) into Chrome/Perfetto
/// `trace_event` JSON — the only Chrome exporter. Events carrying a
/// `dur_ns` field are emitted when their span closes, so they become
/// complete "X" spans starting at `ts_ns - dur_ns`; all others become
/// instant events. Events are named "span event" and grouped into one
/// trace row per root span. Lines that do not parse are skipped (a torn
/// final line after a crash is expected, not an error).
std::string JournalToChromeTrace(std::string_view jsonl);
std::string JournalToChromeTrace(const std::vector<std::string>& lines);

/// Writes the Chrome trace of `journal`'s in-memory ring to `trace_path`.
Status WriteChromeTrace(const Journal& journal, const std::string& trace_path);

/// Reads `journal_path` and writes the converted trace to `trace_path`.
Status ConvertJournalToChromeTrace(const std::string& journal_path,
                                   const std::string& trace_path);

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_JOURNAL_H_
