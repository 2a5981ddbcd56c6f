// The repository benchmark: corpus bytes on disk -> mined dependency
// model (text and columnar input), and hourly streaming into the
// serving layer. One process runs one workload on a corpus generated
// from --seed, times calls into the public functions of log/, core/ and
// serve/ from outside them, checks that every output is correct, and
// prints each metric with its unit and sample count. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   logmine_perfbench --workload=batch_text_7d --seed=1 --seconds=10
//                     --trace=0 --workdir=DIR
//                     [--scale=1.0] [--days=7] [--inject=none|model|corpus]
//
// --trace=0 reports the end-to-end metrics; --trace=1 runs the layer
// profile instead (every layer on this workload's corpus, with spans
// around each public call, written to DIR/../trace-<workload>.json).
// --inject exists for the benchmark's own tests: "model" perturbs one
// mined model before the correctness gate sees it, "corpus" damages the
// workload's input; either must trip the gate.
//
// Normally launched through perfbench/run.py, which builds this binary
// and sizes LOGMINE_EXECUTOR_THREADS to the machine.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "eval/dataset.h"
#include "log/codec.h"
#include "log/columnar.h"
#include "log/corpus_io.h"
#include "obs/obs.h"
#include "serve/model_publisher.h"
#include "serve/sliding_window.h"
#include "serve/streaming_service.h"
#include "util/cli.h"
#include "util/executor.h"
#include "util/snapshot.h"

namespace {

using namespace logmine;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

std::string Join(const std::vector<double>& values) {
  std::ostringstream os;
  for (size_t i = 0; i < values.size(); ++i) os << (i ? " " : "") << values[i];
  return os.str();
}

// ---------------------------------------------------------------------
// Process probes.

struct CpuSample {
  double cpu_s = 0;     // user + sys
  int64_t minflt = 0;   // minor page faults
};

CpuSample ReadRusage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuSample s;
  s.cpu_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
            usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
  s.minflt = usage.ru_minflt;
  return s;
}

// A "Vm...:" line of /proc/self/status (e.g. "VmHWM:"), in MB.
double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  return 0;
}

// Returns freed heap to the kernel and restarts the high-water mark at
// the current RSS, which it returns in MB. VmHWM read later, minus that,
// is the measured phase's own peak: set-up's leftovers (the serve
// workload's epochs held for replay) are not counted.
double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return ProcStatusMb("VmRSS:");
}

// ---------------------------------------------------------------------
// In-memory spans: one per public call the benchmark makes on the main
// thread, with its parent; written out as Chrome trace JSON at the end.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(std::string name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), parent, Now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  // Returns the span's duration in seconds (0 when disabled).
  double End(int id) {
    if (id < 0) return 0;
    spans_[id].end_s = Now();
    open_.pop_back();
    return spans_[id].end_s - spans_[id].start_s;
  }

  size_t num_spans() const { return spans_.size(); }

  // Chrome trace_event JSON; each span carries its self time (duration
  // minus the time its child spans cover).
  void Write(const std::string& path) const {
    if (!enabled_) return;
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_s[span.parent] += span.end_s - span.start_s;
    }
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_s * 1e6 << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"self_us\": " << (s.end_s - s.start_s - child_s[i]) * 1e6
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times `fn` as one span; returns wall seconds whether or not tracing.
double Timed(Tracer* tracer, const std::string& name,
             const std::function<void()>& fn) {
  const int span = tracer->Begin(name);
  const auto start = Clock::now();
  fn();
  const double wall = SecondsBetween(start, Clock::now());
  tracer->End(span);
  return wall;
}

// What one span adds to a call: an empty call timed through a recording
// and through a disabled tracer, the difference per call (median of 5
// batches of 100k calls). A whole traced pass differs from an untraced
// one by far less than pass-to-pass noise, so the overhead of a traced
// run is reported as its span count times this.
double SpanCostSeconds() {
  constexpr int kCalls = 100000;
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    Tracer on(true), off(false);
    auto time_calls = [](Tracer* tracer) {
      const auto start = Clock::now();
      for (int i = 0; i < kCalls; ++i) Timed(tracer, "serve.Step", [] {});
      return SecondsBetween(start, Clock::now());
    };
    const double traced = time_calls(&on);
    const double untraced = time_calls(&off);
    per_call.push_back((traced - untraced) / kCalls);
  }
  return Median(per_call);
}

// ---------------------------------------------------------------------
// Report.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit, size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  // Counts one operation; a failure also leaves a note saying why.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (notes.size() < 20) notes.push_back("FAILED: " + what);
    }
  }
};

// ---------------------------------------------------------------------
// Canonical text of a pipeline result, by component name (source intern
// ids differ between a text-decoded and a simulated store). Two results
// with equal digests carry identical evidence and identical models.

std::string ModelDigest(const core::PipelineResult& result,
                        const std::vector<std::string>& source_names,
                        const core::ServiceVocabulary& vocabulary) {
  std::vector<std::string> lines;
  auto num = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  if (result.l1) {
    for (const core::L1PairResult& p : result.l1->pairs) {
      const core::NamePair names =
          core::MakeUnorderedPair(source_names[p.a], source_names[p.b]);
      lines.push_back("l1 " + names.first + " " + names.second + " " +
                      std::to_string(p.slots_supported) + " " +
                      std::to_string(p.slots_positive) + " " +
                      num(p.positive_ratio) + " " +
                      std::to_string(p.dependent));
    }
    lines.push_back("l1.tested " + std::to_string(result.l1->pairs_tested));
  }
  if (result.l2) {
    for (const core::L2PairScore& s : result.l2->scored) {
      lines.push_back("l2 " + source_names[s.a] + " " + source_names[s.b] +
                      " " + std::to_string(s.table.o11) + " " +
                      std::to_string(s.table.o12) + " " +
                      std::to_string(s.table.o21) + " " +
                      std::to_string(s.table.o22) + " " + num(s.score) + " " +
                      std::to_string(s.dependent));
    }
    lines.push_back("l2.bigrams " + std::to_string(result.l2->num_bigrams));
  }
  if (result.l3) {
    for (const core::L3Citation& c : result.l3->citations) {
      lines.push_back("l3 " + source_names[c.app] + " " +
                      vocabulary.entries[c.entry].id + " " +
                      std::to_string(c.count) + " " +
                      std::to_string(c.dependent));
    }
    lines.push_back("l3.stopped " + std::to_string(result.l3->logs_stopped));
  }
  lines.push_back("status " + result.first_error().ToString());
  std::sort(lines.begin(), lines.end());
  std::string digest;
  for (const std::string& line : lines) digest += line + "\n";
  return digest;
}

std::vector<std::string> SourceNames(const LogStore& store) {
  std::vector<std::string> names;
  for (size_t i = 0; i < store.num_sources(); ++i) {
    names.emplace_back(store.source_name(static_cast<LogStore::SourceId>(i)));
  }
  return names;
}

// The query substrate a batch user gets: the mined models turned into
// the same directed graph the serving layer publishes (BuildQueryGraph),
// with the L1 ∪ L2 model standing in for the tracker-confirmed one.
core::DependencyGraph BatchQueryGraph(
    const core::PipelineResult& result,
    const std::vector<std::string>& source_names,
    const core::ServiceVocabulary& vocabulary,
    const std::map<std::string, std::string>& entry_owner) {
  serve::WindowModelSet models;
  core::DependencyModel app_app;
  for (const core::L1PairResult& p : result.l1->pairs) {
    if (p.dependent) {
      app_app.Insert(
          core::MakeUnorderedPair(source_names[p.a], source_names[p.b]));
    }
  }
  for (const core::L2PairScore& s : result.l2->scored) {
    if (s.dependent) {
      app_app.Insert(
          core::MakeUnorderedPair(source_names[s.a], source_names[s.b]));
    }
  }
  for (const core::L3Citation& c : result.l3->citations) {
    if (c.dependent) {
      models.l3.Insert({source_names[c.app], vocabulary.entries[c.entry].id});
    }
  }
  return serve::BuildQueryGraph(models, app_app, entry_owner);
}

// ---------------------------------------------------------------------
// Workload inputs.

enum class Workload { kBatchText, kBatchColumnar, kServeHourly };

struct Options {
  Workload workload = Workload::kBatchText;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  double scale = 1.0;
  int days = 7;
  std::string inject = "none";
};

// Open-loop arrival rate of the serve workload, in epochs per second: a
// constant well below the service's capacity (about 50 epochs/s on a
// 4-core x86 VM), so a faster commit is not offered more load.
constexpr double kOpenLoopEpochsPerS = 20;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

// What set-up leaves for the measured phase.
struct Inputs {
  std::string corpus_path;                 // batch: the file the workload reads
  std::vector<serve::EpochBatch> batches;  // serve: one per hour
  core::ServiceVocabulary vocabulary;
  std::map<std::string, std::string> entry_owner;
  std::string reference_digest;  // model mined from the in-memory store
  int64_t logs = 0;
};

eval::DatasetConfig CorpusConfig(const Options& options) {
  eval::DatasetConfig config;
  // The landscape (topology, directory) is the paper's default hospital;
  // the seed drives the simulated traffic that becomes the corpus.
  config.simulation.seed = options.seed;
  config.simulation.scale = options.scale;
  config.simulation.num_days = options.days;
  return config;
}

// The default pipeline, except that L1's random baselines are keyed by
// source name and absolute hour (L1Config::salt_anchor) rather than by
// dense source id. Text decode interns sources in file order, the
// simulator in emission order; only the anchored keying makes the text,
// columnar and in-memory models comparable byte for byte. It is the
// keying the serve layer always uses.
core::PipelineConfig MinerConfig() {
  core::PipelineConfig config;
  config.l1.salt_anchor = 0;
  return config;
}

std::string MineDigest(const LogStore& store,
                       const core::ServiceVocabulary& vocabulary) {
  const core::MiningPipeline pipeline(vocabulary, MinerConfig());
  auto result = pipeline.Run(store, store.min_ts(), store.max_ts() + 1);
  if (!result.ok()) return "error " + result.status().ToString();
  return ModelDigest(result.value(), SourceNames(store), vocabulary);
}

// Flips one byte in the middle of `path`: a text corpus loses a field
// separator, a columnar one fails its container CRC.
void DamageFile(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  std::streamoff at = size / 2;
  f.seekg(at);
  char c = 0;
  // For text, land on a '|' so the damaged line has a wrong field count.
  while (f.get(c) && c != '|' && at < size - 1) ++at;
  f.seekp(at);
  f.put(c == '|' ? ';' : static_cast<char>(c ^ 0x5a));
}

// One set-up: simulate the corpus, then write or split the workload's
// input. `timings` receives the per-step seconds by layer metric name.
// With `mine_reference`, the models are then mined from the simulated
// in-memory store (not timed): the file-backed models must equal them.
Status SetUpOnce(const Options& options, bool layer_profile,
                 bool mine_reference, Inputs* inputs,
                 std::map<std::string, double>* timings, Tracer* tracer) {
  Result<eval::Dataset> dataset_or = Status::Internal("not built");
  (*timings)["eval.build_dataset_s"] = Timed(tracer, "eval.BuildDataset", [&] {
    dataset_or = eval::BuildDataset(CorpusConfig(options));
  });
  if (!dataset_or.ok()) return dataset_or.status();
  eval::Dataset dataset = std::move(dataset_or).value();
  inputs->vocabulary = dataset.vocabulary;
  inputs->entry_owner = dataset.entry_owner;
  inputs->logs = static_cast<int64_t>(dataset.store.size());

  const bool batch = options.workload != Workload::kServeHourly;
  if (batch || layer_profile) {
    // The serve workload's corpus is never on disk; its layer profile
    // still reads one back, in the cheaper columnar form.
    const bool text = options.workload == Workload::kBatchText;
    inputs->corpus_path =
        options.workdir + (text ? "/corpus.log" : "/corpus.lmc");
    Status written;
    (*timings)["log.write_s"] = Timed(tracer, "log.WriteCorpus", [&] {
      written = text ? WriteCorpusFile(dataset.store, inputs->corpus_path)
                     : WriteColumnarFile(inputs->corpus_path, dataset.store);
    });
    if (!written.ok()) return written;
  }
  if (!batch || layer_profile) {
    Result<std::vector<serve::EpochBatch>> split = Status::Internal("unsplit");
    (*timings)["serve.split_s"] = Timed(tracer, "serve.SplitIntoEpochBatches",
                                        [&] {
      split = serve::SplitIntoEpochBatches(
          dataset.store, dataset.day_begin(0),
          dataset.day_end(dataset.num_days() - 1), kMillisPerHour);
    });
    if (!split.ok()) return split.status();
    inputs->batches = std::move(split).value();
  }
  if (mine_reference) {
    inputs->reference_digest = MineDigest(dataset.store, inputs->vocabulary);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Batch: corpus file -> models.

// Closed-loop query passes over every component of `graph` for about
// `seconds`; each sample appended to `us_per_query` is one pass's wall
// time divided by its query count, in microseconds.
void BatchQueryPasses(const core::DependencyGraph& graph, double seconds,
                      std::vector<double>* us_per_query, Report* report) {
  const std::vector<std::string> nodes(graph.nodes().begin(),
                                       graph.nodes().end());
  report->Op(!nodes.empty(), "batch query graph is empty");
  if (nodes.empty()) return;
  size_t answered = 0, passes = 0;
  const auto start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < seconds) {
    const auto t0 = Clock::now();
    for (const std::string& node : nodes) {
      answered += graph.ImpactSet(node).size();
      answered += graph.DependentsOf(node).size();
    }
    us_per_query->push_back(SecondsBetween(t0, Clock::now()) * 1e6 /
                            (2.0 * static_cast<double>(nodes.size())));
    ++passes;
  }
  report->attempted += static_cast<int64_t>(passes * 2 * nodes.size());
  if (answered == 0) report->Op(false, "every batch query came back empty");
}

// ---------------------------------------------------------------------
// Serve: hourly epochs -> StreamingMiningService.

struct ServePass {
  double wall_s = 0;
  double peak_rss_mb = 0;  // VmHWM growth over the pass
  std::vector<double> freshness_ms, submit_us, step_ms, queue_wait_ms,
      gen_late_ms, query_us;
  std::string final_generation;  // SerializeGeneration bytes
  serve::ServiceStats stats;
  int64_t state_bytes = 0;
};

serve::ServiceConfig ServiceConfigFor(const Inputs& inputs,
                                      const std::string& state_path) {
  serve::ServiceConfig config;
  config.window.epoch_length = kMillisPerHour;
  config.window.window_epochs = 24;
  config.window.vocabulary = inputs.vocabulary;
  config.entry_owner = inputs.entry_owner;
  config.publish_every_epochs = 1;
  config.state_path = state_path;
  config.default_query_deadline_ms = 1000;
  return config;
}

// One pass over every epoch on a fresh service. `rate` > 0 runs the
// open loop (epoch k due at t0 + k/rate, one concurrent closed-loop
// query client); `rate` == 0 submits and steps back to back. Each epoch
// is copied from `inputs` just before it is needed, the way it would
// arrive, and the copying is kept out of wall_s. Returns the pass;
// failures land in `report`.
ServePass RunServePass(const Options& options, const Inputs& inputs,
                       double rate, const std::string& state_path,
                       Tracer* tracer, Report* report) {
  ServePass pass;
  const double base_rss_mb = ResetPeakRss();
  std::filesystem::remove(state_path);
  auto service_or =
      serve::StreamingMiningService::Create(ServiceConfigFor(inputs, state_path));
  report->Op(service_or.ok(), "service create: " +
                                  service_or.status().ToString());
  if (!service_or.ok()) return pass;
  serve::StreamingMiningService& service = *service_or.value();
  const size_t n = inputs.batches.size();

  // The client only appends to pass.query_us; it is read after the join.
  std::atomic<int64_t> queries{0}, query_failures{0};
  std::jthread client;
  if (rate > 0) {
    client = std::jthread([&](std::stop_token stop) {
      std::vector<std::string> nodes;
      while (!stop.stop_requested()) {
        const auto current = service.CurrentModel();
        if (current == nullptr) {
          std::this_thread::yield();
          continue;
        }
        nodes.assign(current->graph.nodes().begin(),
                     current->graph.nodes().end());
        if (nodes.empty()) {
          std::this_thread::yield();
          continue;
        }
        const auto t0 = Clock::now();
        for (const std::string& node : nodes) {
          if (!service.ImpactOf(node).ok()) ++query_failures;
          if (!service.WhatDependsOn(node).ok()) ++query_failures;
        }
        queries += static_cast<int64_t>(2 * nodes.size());
        pass.query_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6 /
                                (2.0 * static_cast<double>(nodes.size())));
      }
    });
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        rate > 0 ? static_cast<double>(k) / rate : 0.0));
  };
  std::vector<Clock::time_point> submitted(n);
  size_t next_submit = 0, next_done = 0;
  std::optional<serve::EpochBatch> next;  // the copy of epoch next_submit
  Clock::duration copying{};
  auto prepare_next = [&] {
    if (next || next_submit >= n) return;
    const auto copy_start = Clock::now();
    next = inputs.batches[next_submit];
    if (options.inject == "corpus" && next_submit + 1 == n &&
        !next->records.empty()) {
      // A record outside its epoch: the poison-batch class.
      next->records.back().client_ts = next->end;
    }
    copying += Clock::now() - copy_start;
  };
  const auto start = Clock::now();
  while (next_done < n) {
    const auto now = Clock::now();
    const bool submit_due =
        next_submit < n && (rate == 0 ? next_submit == next_done
                                      : now >= due(next_submit));
    if (submit_due) {
      prepare_next();
      const size_t k = next_submit++;
      pass.gen_late_ms.push_back(
          rate > 0 ? std::chrono::duration<double, std::milli>(now - due(k))
                         .count()
                   : 0.0);
      const int span = tracer->Begin("serve.SubmitBatch");
      submitted[k] = Clock::now();
      const serve::SubmitResult result = service.SubmitBatch(std::move(*next));
      next.reset();
      pass.submit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - submitted[k])
              .count());
      tracer->End(span);
      report->Op(result.outcome == serve::SubmitOutcome::kAccepted,
                 "epoch " + std::to_string(k) + " was not accepted cleanly");
      continue;
    }
    if (next_done < next_submit) {
      const size_t k = next_done++;
      const int span = tracer->Begin("serve.Step");
      const auto step_start = Clock::now();
      auto outcome = service.Step();
      const auto step_end = Clock::now();
      tracer->End(span);
      pass.step_ms.push_back(
          std::chrono::duration<double, std::milli>(step_end - step_start)
              .count());
      pass.queue_wait_ms.push_back(
          std::chrono::duration<double, std::milli>(step_start - submitted[k])
              .count());
      pass.freshness_ms.push_back(
          std::chrono::duration<double, std::milli>(step_end - due(k)).count());
      const auto current = service.CurrentModel();
      report->Op(outcome.ok() &&
                     outcome.value() == serve::StepOutcome::kPublished &&
                     current != nullptr &&
                     current->window_end >= inputs.batches[k].end,
                 "epoch " + std::to_string(k) +
                     " did not publish a generation covering it");
      continue;
    }
    prepare_next();  // idle until the next epoch is due
    std::this_thread::sleep_until(due(next_submit));
  }
  pass.wall_s = SecondsBetween(start, Clock::now()) -
                std::chrono::duration<double>(copying).count();
  if (client.joinable()) {
    client.request_stop();
    client.join();
  }

  report->attempted += queries.load() - query_failures.load();
  for (int64_t i = 0; i < query_failures.load(); ++i) {
    report->Op(false, "query failed or passed its deadline");
  }
  pass.stats = service.stats();
  report->Op(pass.stats.batches_shed == 0 && pass.stats.batches_poisoned == 0,
             "shed or poisoned batches");
  const auto final_generation = service.CurrentModel();
  if (final_generation != nullptr) {
    pass.final_generation = serve::SerializeGeneration(*final_generation);
    report->Op(Crc32(pass.final_generation) == final_generation->self_crc,
               "final generation fails its self_crc re-derivation");
  } else {
    report->Op(false, "no generation published");
  }
  std::error_code ec;
  pass.state_bytes =
      static_cast<int64_t>(std::filesystem::file_size(state_path, ec));
  pass.peak_rss_mb = ProcStatusMb("VmHWM:") - base_rss_mb;
  return pass;
}

// ---------------------------------------------------------------------
// Measured phases.

// Warm-up: ReadCorpusFile, then Run with the timed (anchored) config and
// with the default config; this also yields the name table for the
// digests. Then one discarded RunFromCorpusFile rep with the default
// config, which must equal the default-config Run on the same file, so
// the default L1 keying stays checked. Then timed RunFromCorpusFile reps
// until --seconds have passed; each rep's models must equal the
// in-memory reference.
void MeasureBatch(const Options& options, const Inputs& inputs,
                  Report* report) {
  constexpr int kMinReps = 3;
  const double base_rss_mb = ResetPeakRss();
  if (options.inject == "corpus") DamageFile(inputs.corpus_path);
  const core::MiningPipeline pipeline(inputs.vocabulary, MinerConfig());
  const core::MiningPipeline default_pipeline(inputs.vocabulary,
                                              core::PipelineConfig{});
  std::vector<std::string> names;
  std::string default_digest;
  {
    auto store = ReadCorpusFile(inputs.corpus_path);
    report->Op(store.ok(), "warm-up read: " + store.status().ToString());
    if (store.ok()) {
      const LogStore& s = store.value();
      names = SourceNames(s);
      auto result = pipeline.Run(s, s.min_ts(), s.max_ts() + 1);
      const bool ok = result.ok() && result.value().all_ok();
      report->Op(ok && ModelDigest(result.value(), names, inputs.vocabulary) ==
                           inputs.reference_digest,
                 "warm-up model differs from the in-memory model");
      auto by_default = default_pipeline.Run(s, s.min_ts(), s.max_ts() + 1);
      report->Op(by_default.ok() && by_default.value().all_ok(),
                 "default-config Run failed");
      if (by_default.ok()) {
        default_digest =
            ModelDigest(by_default.value(), names, inputs.vocabulary);
      }
    }
  }
  std::vector<double> run_s;
  const auto start = Clock::now();
  for (int rep = 0; rep <= 50 && !names.empty(); ++rep) {
    if (rep > kMinReps && SecondsBetween(start, Clock::now()) >= options.seconds) {
      break;
    }
    const bool warm_up = rep == 0;  // default config, not timed
    const auto t0 = Clock::now();
    auto result = (warm_up ? default_pipeline : pipeline)
                      .RunFromCorpusFile(inputs.corpus_path);
    const double wall = SecondsBetween(t0, Clock::now());
    const bool ok = result.ok() && result.value().all_ok();
    if (ok && options.inject == "model" && rep == 1 &&
        !result.value().l1->pairs.empty()) {
      result.value().l1->pairs.front().dependent ^= true;
    }
    const std::string digest =
        ok ? ModelDigest(result.value(), names, inputs.vocabulary) : "";
    if (warm_up) {
      report->Op(ok && digest == default_digest,
                 "default-config RunFromCorpusFile differs from Run on the "
                 "same file");
    } else {
      report->Op(ok && digest == inputs.reference_digest,
                 "rep " + std::to_string(rep) +
                     ": file model differs from the in-memory model");
      run_s.push_back(wall);
    }
  }
  report->Add("corpus_to_models_s", Median(run_s), "s", run_s.size());
  report->notes.push_back("RunFromCorpusFile reps (s): " + Join(run_s));
  report->Add("peak_rss_mb", ProcStatusMb("VmHWM:") - base_rss_mb, "MB", 1);
}

void MeasureServe(const Options& options, const Inputs& inputs,
                  Report* report) {
  const std::string state_path = options.workdir + "/serve.state";
  Tracer off(false);
  const auto start = Clock::now();
  ServePass open = RunServePass(options, inputs, kOpenLoopEpochsPerS,
                                state_path, &off, report);
  std::vector<double> closed_s, peak_mb = {open.peak_rss_mb};
  while (closed_s.size() < 4 ||
         (SecondsBetween(start, Clock::now()) < options.seconds &&
          closed_s.size() < 20)) {
    ServePass closed =
        RunServePass(options, inputs, 0, state_path, &off, report);
    std::string bytes = closed.final_generation;
    if (options.inject == "model" && closed_s.empty() && !bytes.empty()) {
      bytes[bytes.size() / 2] ^= 1;
    }
    report->Op(!bytes.empty() && bytes == open.final_generation,
               "closed-loop final generation differs from the open loop's");
    closed_s.push_back(closed.wall_s);
    peak_mb.push_back(closed.peak_rss_mb);
  }
  report->Add("corpus_to_models_s", Median(closed_s), "s", closed_s.size());
  report->notes.push_back("closed-loop passes (s): " + Join(closed_s));
  report->Add("peak_rss_mb", Median(peak_mb), "MB", peak_mb.size());
  report->notes.push_back("peak RSS growth per pass (MB): " + Join(peak_mb));
  size_t largest_epoch = 0;
  for (const serve::EpochBatch& batch : inputs.batches) {
    largest_epoch = std::max(largest_epoch, batch.records.size());
  }
  report->notes.push_back("largest epoch: " + std::to_string(largest_epoch) +
                          " records");
  // Context for the reader; not gated (see perfbench/README.md).
  report->notes.push_back(
      "open loop at " + std::to_string(kOpenLoopEpochsPerS) +
      " epochs/s: freshness_ms p50 " +
      std::to_string(Percentile(open.freshness_ms, 0.5)) + " p90 " +
      std::to_string(Percentile(open.freshness_ms, 0.9)) + "; query_us p50 " +
      std::to_string(Percentile(open.query_us, 0.5)) + " p90 " +
      std::to_string(Percentile(open.query_us, 0.9)) +
      "; capacity_epochs_per_s " +
      std::to_string(static_cast<double>(inputs.batches.size()) /
                     Median(closed_s)));
}

// The traced run: every layer on this workload's corpus, each public
// call inside a span. Layers off the workload's own path are measured
// too, so every traced run reports the same metric set.
void LayerProfile(const Options& options, const Inputs& inputs,
                  const std::map<std::string, double>& setup_timings,
                  Tracer* tracer, Report* report) {
  for (const auto& [name, seconds] : setup_timings) {
    report->Add(name, seconds, "s", 1);
  }
  const core::MiningPipeline pipeline(inputs.vocabulary, MinerConfig());
  constexpr int kReps = 3;

  // log: ReadCorpusFile alone (one warm-up read first).
  std::vector<double> read_s, read_cpu_s, read_minflt;
  std::optional<LogStore> store;
  IngestStats ingest;
  for (int rep = 0; rep <= kReps; ++rep) {
    store.reset();
    ingest = IngestStats{};
    const CpuSample before = ReadRusage();
    Result<LogStore> read = Status::Internal("unread");
    const double wall = Timed(tracer, "log.ReadCorpusFile", [&] {
      read = ReadCorpusFile(inputs.corpus_path, DecodeOptions{}, &ingest);
    });
    const CpuSample after = ReadRusage();
    report->Op(read.ok(), "ReadCorpusFile: " + read.status().ToString());
    if (!read.ok()) return;
    store = std::move(read).value();
    if (rep == 0) continue;
    read_s.push_back(wall);
    read_cpu_s.push_back(after.cpu_s - before.cpu_s);
    read_minflt.push_back(static_cast<double>(after.minflt - before.minflt));
  }
  std::error_code ec;
  report->Add("log.read_s", Median(read_s), "s", read_s.size());
  report->Add("log.read_cpu_s", Median(read_cpu_s), "s", read_cpu_s.size());
  report->Add("log.read_minflt", Median(read_minflt), "count",
              read_minflt.size());
  report->Add("log.bytes",
              static_cast<double>(
                  std::filesystem::file_size(inputs.corpus_path, ec)),
              "bytes", 1);
  report->Add("log.records", static_cast<double>(store->size()), "count", 1);
  report->Add("log.quarantined", static_cast<double>(ingest.lines_quarantined),
              "count", 1);

  // core: each miner alone, then the pipeline without and with an
  // ObsContext, interleaved so the telemetry tax is a paired difference.
  const TimeMs begin = store->min_ts(), end = store->max_ts() + 1;
  const core::PipelineConfig config = MinerConfig();
  std::vector<double> l1_s, l2_s, l3_s, pipeline_s, ctx_s, query_us;
  std::optional<core::PipelineResult> mined;
  const std::vector<std::string> names = SourceNames(*store);
  for (int rep = 0; rep < kReps; ++rep) {
    Result<core::L1Result> l1 = Status::Internal("");
    Result<core::L2Result> l2 = Status::Internal("");
    Result<core::L3Result> l3 = Status::Internal("");
    l1_s.push_back(Timed(tracer, "core.L1ActivityMiner.Mine", [&] {
      l1 = core::L1ActivityMiner(config.l1).Mine(*store, begin, end);
    }));
    l2_s.push_back(Timed(tracer, "core.L2CooccurrenceMiner.Mine", [&] {
      l2 = core::L2CooccurrenceMiner(config.l2).Mine(*store, begin, end);
    }));
    l3_s.push_back(Timed(tracer, "core.L3TextMiner.Mine", [&] {
      l3 = core::L3TextMiner(inputs.vocabulary, config.l3)
               .Mine(*store, begin, end);
    }));
    report->Op(l1.ok() && l2.ok() && l3.ok(), "a miner failed on its own");
    Result<core::PipelineResult> plain = Status::Internal("");
    pipeline_s.push_back(Timed(tracer, "core.MiningPipeline.Run", [&] {
      plain = pipeline.Run(*store, begin, end);
    }));
    obs::ObsContext context;
    Result<core::PipelineResult> with_ctx = Status::Internal("");
    ctx_s.push_back(Timed(tracer, "obs.MiningPipeline.Run+ObsContext", [&] {
      with_ctx = pipeline.Run(*store, begin, end, nullptr, &context);
    }));
    for (const auto* r : {&plain, &with_ctx}) {
      report->Op(r->ok() && ModelDigest(r->value(), names, inputs.vocabulary) ==
                                inputs.reference_digest,
                 "layer-profile model differs from the in-memory model");
    }
    if (plain.ok() && plain.value().all_ok()) {
      // A graph freshly built after every rep: where its nodes land in
      // memory sets the query speed (slices over one allocation ran
      // wholly at one of several levels up to 40% apart).
      BatchQueryPasses(BatchQueryGraph(plain.value(), names, inputs.vocabulary,
                                       inputs.entry_owner),
                       /*seconds=*/0.2, &query_us, report);
      mined = std::move(plain).value();
    }
  }
  report->Add("core.l1_s", Median(l1_s), "s", l1_s.size());
  report->Add("core.l2_s", Median(l2_s), "s", l2_s.size());
  report->Add("core.l3_s", Median(l3_s), "s", l3_s.size());
  report->Add("core.pipeline_s", Median(pipeline_s), "s", pipeline_s.size());
  report->Add("obs.pipeline_ctx_s", Median(ctx_s), "s", ctx_s.size());
  report->Add("core.query_us_p50", Percentile(query_us, 0.5), "us",
              query_us.size());
  report->Add("core.query_us_p90", Percentile(query_us, 0.9), "us",
              query_us.size());
  if (mined && mined->all_ok()) {
    int64_t edges = 0;
    for (const auto& p : mined->l1->pairs) edges += p.dependent;
    for (const auto& s : mined->l2->scored) edges += s.dependent;
    for (const auto& c : mined->l3->citations) edges += c.dependent;
    report->Add("core.l1_pairs_tested",
                static_cast<double>(mined->l1->pairs_tested), "count", 1);
    report->Add("core.l1_pairs_pruned",
                static_cast<double>(mined->l1->pairs_pruned), "count", 1);
    report->Add("core.l2_bigrams",
                static_cast<double>(mined->l2->num_bigrams), "count", 1);
    report->Add("core.l3_logs_stopped",
                static_cast<double>(mined->l3->logs_stopped), "count", 1);
    report->Add("core.model_edges", static_cast<double>(edges), "count", 1);
  }
  store.reset();

  // serve: the open-loop pass with its query client, then one closed-loop
  // pass.
  const std::string state_path = options.workdir + "/serve.state";
  ServePass open = RunServePass(options, inputs, kOpenLoopEpochsPerS,
                                state_path, tracer, report);
  ServePass closed = RunServePass(options, inputs, 0, state_path, tracer, report);
  report->Op(!open.final_generation.empty() &&
                 closed.final_generation == open.final_generation,
             "closed-loop final generation differs from the open loop's");
  report->Add("serve.freshness_ms_p50", Percentile(open.freshness_ms, 0.5),
              "ms", open.freshness_ms.size());
  report->Add("serve.freshness_ms_p90", Percentile(open.freshness_ms, 0.9),
              "ms", open.freshness_ms.size());
  report->Add("serve.query_us_p50", Percentile(open.query_us, 0.5), "us",
              open.query_us.size());
  report->Add("serve.query_us_p90", Percentile(open.query_us, 0.9), "us",
              open.query_us.size());
  report->Add("serve.submit_us_p50", Percentile(open.submit_us, 0.5), "us",
              open.submit_us.size());
  report->Add("serve.step_ms_p50", Percentile(open.step_ms, 0.5), "ms",
              open.step_ms.size());
  report->Add("serve.step_ms_p90", Percentile(open.step_ms, 0.9), "ms",
              open.step_ms.size());
  report->Add("serve.queue_wait_ms_p90", Percentile(open.queue_wait_ms, 0.9),
              "ms", open.queue_wait_ms.size());
  report->Add("serve.gen_late_ms_p90", Percentile(open.gen_late_ms, 0.9), "ms",
              open.gen_late_ms.size());
  report->Add("serve.state_bytes", static_cast<double>(open.state_bytes),
              "bytes", 1);
  report->Add("serve.generation_bytes",
              static_cast<double>(open.final_generation.size()), "bytes", 1);
  report->Add("serve.generations",
              static_cast<double>(open.stats.generations_published), "count", 1);
  report->Add("serve.shed", static_cast<double>(open.stats.batches_shed),
              "count", 1);
  report->Add("serve.poisoned",
              static_cast<double>(open.stats.batches_poisoned), "count", 1);
  report->Add("serve.snapshots_written",
              static_cast<double>(open.stats.snapshots_written), "count", 1);
  report->Add("serve.query_deadline_exceeded",
              static_cast<double>(open.stats.query_deadline_exceeded), "count",
              1);
  report->Add("serve.closed_pass_s", closed.wall_s, "s", 1);
  report->Add("trace.overhead_s",
              static_cast<double>(tracer->num_spans()) * SpanCostSeconds(), "s",
              tracer->num_spans());
}

// ---------------------------------------------------------------------

void PrintReport(const Report& report) {
  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  std::cout << "error_rate = "
            << (report.attempted ? static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                                 : 1.0)
            << " (" << report.failed << " of " << report.attempted
            << " operations failed)\n";
  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      json << m.value;
    } else {
      json << "null";
    }
    json << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  Options options;
  options.workload_name = flags.GetString("workload", "");
  if (options.workload_name == "batch_text_7d") {
    options.workload = Workload::kBatchText;
  } else if (options.workload_name == "batch_columnar_7d") {
    options.workload = Workload::kBatchColumnar;
  } else if (options.workload_name == "serve_hourly_7d") {
    options.workload = Workload::kServeHourly;
  } else {
    std::cerr << "unknown --workload: " << options.workload_name << "\n";
    return 2;
  }
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10);
  options.trace = flags.GetBool("trace", false);
  options.workdir = flags.GetString("workdir", "");
  options.scale = flags.GetDouble("scale", 1.0);
  options.days = static_cast<int>(flags.GetInt("days", 7));
  options.inject = flags.GetString("inject", "none");
  if (options.workdir.empty() ||
      (options.inject != "none" && options.inject != "model" &&
       options.inject != "corpus")) {
    std::cerr << "need --workdir and --inject none|model|corpus\n";
    return 2;
  }

  if (options.workload == Workload::kServeHourly) {
    // glibc raises its mmap threshold whenever a large block is freed, so
    // whether an epoch-sized buffer got a fresh mapping or a fragment of
    // a heap that set-up had left behind depended on allocation history,
    // and the serve peak moved between 13 and 19 MB from run to run.
    // Pinning the threshold at its starting value from the start (which
    // also stops the adjustment) makes that peak the service's live
    // memory: it repeats within 3% across seeds.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  }

  // Serve passes (the serve workload, and every layer profile) add the
  // query client to the executor's workers and the calling thread.
  const int workers = Executor::Shared().num_workers();
  const bool client =
      options.workload == Workload::kServeHourly || options.trace;
  std::cout << "# workload " << options.workload_name << " seed "
            << options.seed << " trace " << options.trace
            << " | hardware_concurrency " << std::thread::hardware_concurrency()
            << ", executor workers " << workers << ", busy threads "
            << workers + 1 + (client ? 1 : 0) << " (workers + caller"
            << (client ? " + query client" : "") << ")\n";

  Report report;
  Tracer tracer(options.trace);
  Inputs inputs;
  std::map<std::string, double> timings;
  std::vector<double> setup_s;
  const int setup_reps = options.trace ? 1 : kSetupReps;
  const bool need_reference =
      options.workload != Workload::kServeHourly || options.trace;
  for (int rep = 0; rep < setup_reps; ++rep) {
    inputs = Inputs{};
    timings.clear();
    Status s = SetUpOnce(options, options.trace,
                         need_reference && rep + 1 == setup_reps, &inputs,
                         &timings, &tracer);
    if (!s.ok()) {
      std::cerr << "set-up failed: " << s << "\n";
      return 1;
    }
    double total = 0;
    std::ostringstream parts;
    for (const auto& [name, seconds] : timings) {
      total += seconds;
      parts << " " << name << " " << seconds;
    }
    setup_s.push_back(total);
    std::cout << "# set-up " << rep << ": " << total << " s (" << parts.str()
              << " )\n";
  }
  std::cout << "# corpus: " << inputs.logs << " logs; reference model crc "
            << Crc32(inputs.reference_digest) << "\n";

  if (options.trace) {
    LayerProfile(options, inputs, timings, &tracer, &report);
  } else {
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    if (options.workload == Workload::kServeHourly) {
      MeasureServe(options, inputs, &report);
    } else {
      MeasureBatch(options, inputs, &report);
    }
  }
  tracer.Write(options.workdir + "/../trace-" + options.workload_name + ".json");
  PrintReport(report);
  return report.failed == 0 ? 0 : 1;
}
