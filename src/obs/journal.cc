#include "obs/journal.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/metrics.h"

namespace logmine::obs {
namespace {

std::atomic<uint64_t> g_next_journal{1};

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::string MakeRunId() {
  const auto wall = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::ostringstream os;
  os << "run-" << std::hex << wall << "-" << ::getpid() << "-"
     << g_next_journal.fetch_add(1, std::memory_order_relaxed);
  return std::move(os).str();
}

std::string RotatedName(const std::string& path, size_t generation) {
  return path + "." + std::to_string(generation);
}

// --- minimal JSONL field extraction for the trace converter ----------
// The journal wrote these lines itself, so the grammar is known: keys
// are unescaped, values are integers, doubles, bools, or escaped
// strings. Anything that fails to parse (e.g. a torn final line after a
// crash) is skipped.

bool FindKey(std::string_view line, std::string_view key, size_t* value_at) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  *value_at = at + needle.size();
  return true;
}

bool ExtractInt(std::string_view line, std::string_view key, int64_t* out) {
  size_t at = 0;
  if (!FindKey(line, key, &at)) return false;
  int64_t sign = 1;
  if (at < line.size() && line[at] == '-') {
    sign = -1;
    ++at;
  }
  if (at >= line.size() || line[at] < '0' || line[at] > '9') return false;
  int64_t value = 0;
  while (at < line.size() && line[at] >= '0' && line[at] <= '9') {
    value = value * 10 + (line[at] - '0');
    ++at;
  }
  *out = sign * value;
  return true;
}

bool ExtractString(std::string_view line, std::string_view key,
                   std::string* out) {
  size_t at = 0;
  if (!FindKey(line, key, &at)) return false;
  if (at >= line.size() || line[at] != '"') return false;
  ++at;
  out->clear();
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\' && at + 1 < line.size()) {
      ++at;
      switch (line[at]) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        default:
          *out += line[at];
      }
    } else {
      *out += line[at];
    }
    ++at;
  }
  return at < line.size();  // saw the closing quote
}

// Fixed-point microseconds (the trace_event unit) with 3 decimals, so
// sub-microsecond spans keep their duration.
void AppendMicros(int64_t ns, std::string* out) {
  if (ns < 0) {
    *out += '-';
    ns = -ns;
  }
  char frac[8];
  std::snprintf(frac, sizeof(frac), ".%03d", static_cast<int>(ns % 1000));
  *out += std::to_string(ns / 1000);
  *out += frac;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot write trace file: " + path);
  }
  out << text;
  return out.good() ? Status::OK() : Status::Internal("short write: " + path);
}

}  // namespace

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - ProcessEpoch())
      .count();
}

uint32_t CurrentTraceThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  size_t plain = 0;  // start of the pending run that needs no escaping
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out->append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s, plain, s.size() - plain);
  *out += '"';
}

JournalField JournalField::Str(std::string_view key, std::string_view value) {
  JournalField field;
  field.key = std::string(key);
  AppendJsonString(value, &field.value);
  return field;
}

JournalField JournalField::Num(std::string_view key, int64_t value) {
  return {std::string(key), std::to_string(value)};
}

JournalField JournalField::Real(std::string_view key, double value) {
  return {std::string(key), std::to_string(value)};
}

JournalField JournalField::Flag(std::string_view key, bool value) {
  return {std::string(key), value ? "true" : "false"};
}

Journal::Journal(const JournalOptions& options, MetricsRegistry* metrics)
    : options_(options), metrics_(metrics), run_id_(MakeRunId()) {
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::out | std::ios::app);
    if (file_.is_open()) {
      file_.seekp(0, std::ios::end);
      const auto pos = file_.tellp();
      bytes_written_ = pos > 0 ? static_cast<size_t>(pos) : 0;
    }
  }
}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_.is_open()) file_.flush();
}

std::string Journal::BeginRootSpan(std::string_view prefix) {
  std::string span(prefix);
  span += '-';
  span += std::to_string(next_span_.fetch_add(1, std::memory_order_relaxed) +
                         1);
  return span;
}

void Journal::Emit(std::string_view span, std::string_view event,
                   const std::vector<JournalField>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < kTailCapacity) ring_.emplace_back();
  // Rendered in place over the oldest line: the slot keeps its
  // capacity, so a steady stream of events (spans emit per query)
  // allocates nothing and touches few cache lines.
  std::string& line = ring_[events_ % kTailCapacity];
  line.assign("{\"ts_ns\":");
  line += std::to_string(MonotonicNowNs());
  line += ",\"run\":\"";
  line += run_id_;  // MakeRunId's [a-z0-9-] needs no escaping
  line += "\",\"span\":";
  AppendJsonString(span, &line);
  line += ",\"event\":";
  AppendJsonString(event, &line);
  for (const JournalField& field : fields) {
    line += ',';
    AppendJsonString(field.key, &line);
    line += ':';
    line += field.value;
  }
  line += '}';
  ++events_;
  if (file_.is_open()) {
    file_ << line << '\n';
    file_.flush();  // truthful-after-SIGKILL is the whole point
    bytes_written_ += line.size() + 1;
    if (bytes_written_ >= options_.max_bytes_per_file) RotateLocked();
  }
  if (metrics_ != nullptr) {
    metrics_->Add(Metric::kJournalEventsEmitted, 1);
  }
}

void Journal::RotateLocked() {
  file_.close();
  if (options_.max_rotated_files == 0) {
    std::remove(options_.path.c_str());
  } else {
    std::remove(RotatedName(options_.path, options_.max_rotated_files).c_str());
    for (size_t g = options_.max_rotated_files; g > 1; --g) {
      std::rename(RotatedName(options_.path, g - 1).c_str(),
                  RotatedName(options_.path, g).c_str());
    }
    std::rename(options_.path.c_str(),
                RotatedName(options_.path, 1).c_str());
  }
  file_.open(options_.path, std::ios::out | std::ios::trunc);
  bytes_written_ = 0;
  ++rotations_;
  if (metrics_ != nullptr) metrics_->Add(Metric::kJournalRotations, 1);
}

std::vector<std::string> Journal::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, ring_.size());
  std::vector<std::string> lines;
  lines.reserve(take);
  for (uint64_t i = events_ - take; i < events_; ++i) {
    lines.push_back(ring_[i % kTailCapacity]);
  }
  return lines;
}

uint64_t Journal::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t Journal::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

std::string JournalToChromeTrace(std::string_view jsonl) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Root spans (the path segment before the first '/') map to trace
  // "threads" so Perfetto lays concurrent shards out as parallel rows.
  std::map<std::string, int> root_tids;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    int64_t ts_ns = 0;
    std::string span, event;
    if (!ExtractInt(line, "ts_ns", &ts_ns) ||
        !ExtractString(line, "span", &span) ||
        !ExtractString(line, "event", &event)) {
      continue;  // torn or foreign line
    }
    const std::string root = span.substr(0, span.find('/'));
    const auto [it, inserted] =
        root_tids.emplace(root, static_cast<int>(root_tids.size()) + 1);
    const int tid = it->second;
    int64_t dur_ns = 0;
    const bool complete = ExtractInt(line, "dur_ns", &dur_ns);
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(span + " " + event, &out);
    // A span event is stamped when the span closes; it began dur_ns
    // earlier.
    const int64_t start_ns = complete ? ts_ns - dur_ns : ts_ns;
    out += ",\"pid\":1,\"tid\":" + std::to_string(tid) + ",\"ts\":";
    AppendMicros(start_ns, &out);
    if (complete) {
      out += ",\"ph\":\"X\",\"dur\":";
      AppendMicros(dur_ns, &out);
      out += '}';
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"}";
    }
  }
  out += "]}";
  return out;
}

std::string JournalToChromeTrace(const std::vector<std::string>& lines) {
  std::string jsonl;
  for (const std::string& line : lines) {
    jsonl += line;
    jsonl += '\n';
  }
  return JournalToChromeTrace(jsonl);
}

Status WriteChromeTrace(const Journal& journal,
                        const std::string& trace_path) {
  return WriteTextFile(
      trace_path, JournalToChromeTrace(journal.Tail(Journal::kTailCapacity)));
}

Status ConvertJournalToChromeTrace(const std::string& journal_path,
                                   const std::string& trace_path) {
  std::ifstream in(journal_path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("journal file not found: " + journal_path);
  }
  std::ostringstream content;
  content << in.rdbuf();
  return WriteTextFile(trace_path, JournalToChromeTrace(content.str()));
}

}  // namespace logmine::obs
