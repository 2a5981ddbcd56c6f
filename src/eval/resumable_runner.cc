#include "eval/resumable_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/serialization.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".snap";

std::string GenerationFileName(int generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06d.snap", generation);
  return buf;
}

std::string GenerationPath(const std::string& dir, int generation) {
  return (fs::path(dir) / GenerationFileName(generation)).string();
}

/// Generation number encoded in a checkpoint file name, or -1 when the
/// name is not one of ours (tmp leftovers, stray files).
int ParseGeneration(const std::string& name) {
  if (name.size() <= kPrefix.size() + kSuffix.size()) return -1;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return -1;
  }
  int generation = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    generation = generation * 10 + (name[i] - '0');
  }
  return generation > 0 ? generation : -1;
}

/// Newest-first list of (generation, path) checkpoint candidates.
std::vector<std::pair<int, std::string>> ListGenerations(
    const std::string& dir) {
  std::vector<std::pair<int, std::string>> generations;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const int generation = ParseGeneration(entry.path().filename().string());
    if (generation > 0) {
      generations.emplace_back(generation, entry.path().string());
    }
  }
  std::sort(generations.begin(), generations.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return generations;
}

void PruneGenerations(const std::string& dir, int current_generation,
                      int keep_generations) {
  const int keep = std::max(2, keep_generations);
  for (const auto& [generation, path] : ListGenerations(dir)) {
    if (generation <= current_generation - keep) {
      std::error_code ec;
      fs::remove(path, ec);  // best-effort; a leftover is just re-pruned
    }
  }
}

/// The torn write a kMidSnapshotWrite crash leaves behind: half the
/// snapshot, straight at the final path (as if the platform had no
/// atomic rename, or the disk corrupted the sector after the fact).
void WriteTornSnapshot(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

/// Decodes one checkpoint into `run`. ParseError-class defects mean
/// "discard this generation"; a FailedPrecondition means "refuse the
/// run" (state written under a different config/dataset).
Status DecodeCheckpoint(const std::string& bytes, TechniqueId technique,
                        uint64_t state_hash, int num_days,
                        ResumableDailyResult* run, int* days_completed) {
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor meta, reader.Section("meta"));
  LOGMINE_ASSIGN_OR_RETURN(uint32_t stored_technique, meta.ReadU32());
  if (stored_technique != static_cast<uint32_t>(technique)) {
    return Status::ParseError("checkpoint belongs to technique " +
                              std::to_string(stored_technique));
  }
  LOGMINE_ASSIGN_OR_RETURN(uint64_t stored_hash, meta.ReadU64());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t stored_num_days, meta.ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t completed, meta.ReadU32());
  LOGMINE_RETURN_IF_ERROR(meta.ExpectEnd());
  if (stored_hash != state_hash ||
      stored_num_days != static_cast<uint32_t>(num_days)) {
    return Status::FailedPrecondition(
        "checkpoint was written under a different config/dataset "
        "(fingerprint " +
        std::to_string(stored_hash) + " over " +
        std::to_string(stored_num_days) + " days, this run is " +
        std::to_string(state_hash) + " over " + std::to_string(num_days) +
        "); refusing to resume — pick a fresh checkpoint dir or restore "
        "the original parameters");
  }
  if (completed < 1 || completed > static_cast<uint32_t>(num_days)) {
    return Status::ParseError("checkpoint claims " +
                              std::to_string(completed) + " completed days");
  }

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor series_cursor,
                           reader.Section("series"));
  LOGMINE_ASSIGN_OR_RETURN(run->result.series,
                           core::DecodeDailySeries(&series_cursor));
  LOGMINE_RETURN_IF_ERROR(series_cursor.ExpectEnd());
  if (run->result.series.days.size() != completed) {
    return Status::ParseError("checkpoint series length mismatch");
  }

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor models_cursor,
                           reader.Section("models"));
  LOGMINE_ASSIGN_OR_RETURN(uint64_t num_models, models_cursor.ReadU64());
  if (num_models != completed) {
    return Status::ParseError("checkpoint model count mismatch");
  }
  run->result.daily_models.clear();
  run->result.daily_models.reserve(num_models);
  for (uint64_t i = 0; i < num_models; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(core::DependencyModel model,
                             core::DecodeDependencyModel(&models_cursor));
    run->result.daily_models.push_back(std::move(model));
  }
  LOGMINE_RETURN_IF_ERROR(models_cursor.ExpectEnd());

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor sessions_cursor,
                           reader.Section("sessions"));
  LOGMINE_ASSIGN_OR_RETURN(uint64_t num_sessions, sessions_cursor.ReadU64());
  if (num_sessions != 0 && num_sessions != completed) {
    return Status::ParseError("checkpoint session-stats count mismatch");
  }
  run->session_stats.clear();
  run->session_stats.reserve(num_sessions);
  for (uint64_t i = 0; i < num_sessions; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(core::SessionBuildStats stats,
                             core::DecodeSessionBuildStats(&sessions_cursor));
    run->session_stats.push_back(stats);
  }
  LOGMINE_RETURN_IF_ERROR(sessions_cursor.ExpectEnd());

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor tracker_cursor,
                           reader.Section("tracker"));
  LOGMINE_ASSIGN_OR_RETURN(run->tracker,
                           core::DecodeModelTracker(&tracker_cursor));
  LOGMINE_RETURN_IF_ERROR(tracker_cursor.ExpectEnd());
  if (run->tracker.num_observations() != static_cast<int64_t>(completed)) {
    return Status::ParseError("checkpoint tracker observation mismatch");
  }

  *days_completed = static_cast<int>(completed);
  return Status::OK();
}

/// Scans the checkpoint directory newest-first for a generation this
/// run can resume from. OK with days_loaded == 0 means "start fresh".
Status LoadNewestValid(const ResumableOptions& options, TechniqueId technique,
                       uint64_t state_hash, int num_days,
                       ResumableDailyResult* run) {
  obs::ObsContext* ctx = obs::Effective(options.obs);
  for (const auto& [generation, path] :
       ListGenerations(options.checkpoint.dir)) {
    std::string bytes;
    const int64_t read_start_ns =
        ctx != nullptr ? obs::MonotonicNowNs() : 0;
    const Status read = RetryWithBackoff(
        options.checkpoint.retry, "read:" + path, [&] {
          auto bytes_or = ReadFileToString(path);
          if (!bytes_or.ok()) return bytes_or.status();
          bytes = std::move(bytes_or).value();
          return Status::OK();
        });
    if (!read.ok()) {
      // Vanished (pruned by a racing writer) or persistently unreadable:
      // either way this generation cannot help; fall back.
      obs::Count(ctx, obs::Metric::kCheckpointGenerationsDiscarded);
      ++run->resume.generations_discarded;
      continue;
    }
    obs::Count(ctx, obs::Metric::kCheckpointSnapshotsRead);
    obs::Count(ctx, obs::Metric::kCheckpointBytesRead,
               static_cast<int64_t>(bytes.size()));
    if (ctx != nullptr) {
      obs::Observe(ctx, obs::Metric::kCheckpointReadNs,
                   obs::MonotonicNowNs() - read_start_ns);
    }
    ResumableDailyResult candidate;
    candidate.tracker = core::ModelTracker(options.tracker);
    int days_completed = 0;
    const Status decoded = DecodeCheckpoint(bytes, technique, state_hash,
                                            num_days, &candidate,
                                            &days_completed);
    if (decoded.code() == StatusCode::kFailedPrecondition) {
      return decoded;  // config/dataset mismatch: refuse, do not fall back
    }
    if (!decoded.ok()) {
      obs::Count(ctx, obs::Metric::kCheckpointGenerationsDiscarded);
      ++run->resume.generations_discarded;
      continue;
    }
    candidate.resume = run->resume;
    candidate.resume.days_loaded = days_completed;
    candidate.resume.resumed_from = path;
    *run = std::move(candidate);
    return Status::OK();
  }
  return Status::OK();
}

/// The day span of each technique, indexed by TechniqueId.
constexpr const char* kDaySpans[] = {"", "eval/l1_day", "eval/l2_day",
                                     "eval/l3_day"};

}  // namespace

Result<ResumableDailyResult> RunDaily(const Dataset& dataset,
                                      const Technique& technique,
                                      const ResumableOptions& options) {
  using sim::CrashInjector;
  using sim::KillPoint;
  const TechniqueId id = technique.id();
  const int num_days = dataset.num_days();
  const uint64_t state_hash =
      CheckpointStateHash(technique.fingerprint(), dataset, options.tracker);
  const bool checkpointing = !options.checkpoint.dir.empty();

  ResumableDailyResult run;
  run.tracker = core::ModelTracker(options.tracker);
  if (checkpointing) {
    std::error_code ec;
    fs::create_directories(options.checkpoint.dir, ec);
    if (ec) {
      return Status::Internal("cannot create checkpoint dir " +
                              options.checkpoint.dir + ": " + ec.message());
    }
    LOGMINE_RETURN_IF_ERROR(
        LoadNewestValid(options, id, state_hash, num_days, &run));
  }

  // Journal the resume decision and every day/checkpoint boundary: the
  // crash-recovery property means the journal (flushed per line) is the
  // record of how far a killed run actually got.
  obs::ObsContext* ctx = obs::Effective(options.obs);
  std::string span;
  if (ctx != nullptr) {
    span = ctx->journal().BeginRootSpan("resume");
    ctx->journal().Emit(
        span, "resume_start",
        {obs::JournalField::Str("technique", technique.name()),
         obs::JournalField::Num("days_loaded", run.resume.days_loaded),
         obs::JournalField::Num("generations_discarded",
                                run.resume.generations_discarded),
         obs::JournalField::Str("resumed_from", run.resume.resumed_from)});
  }

  const auto start = std::chrono::steady_clock::now();
  for (int day = run.resume.days_loaded; day < num_days; ++day) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled(
          std::string(technique.name()) + " sweep cancelled after " +
          std::to_string(day) + " of " + std::to_string(num_days) + " days");
    }
    if (options.deadline_ms != 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (options.deadline_ms < 0 || elapsed >= options.deadline_ms) {
        return Status::DeadlineExceeded(
            std::string(technique.name()) +
            " sweep deadline expired after " + std::to_string(day) + " of " +
            std::to_string(num_days) + " days");
      }
    }

    auto outcome = [&] {
      LOGMINE_SPAN_GLOBAL(kDaySpans[static_cast<uint32_t>(id)],
                          obs::Metric::kEvalDayNs);
      obs::Count(obs::Metric::kEvalDaysMined);
      return technique.MineDay(dataset, day);
    }();
    if (!outcome.ok()) return outcome.status();
    DayOutcome& value = outcome.value();
    run.tracker.Observe(value.model);
    if (id == TechniqueId::kL2) {
      run.session_stats.push_back(value.session_stats);
    }
    run.result.series.day_labels.push_back(std::move(value.label));
    run.result.series.days.push_back(value.counts);
    run.result.daily_models.push_back(std::move(value.model));
    ++run.resume.days_mined;
    if (ctx != nullptr) {
      ctx->journal().Emit(span + "/day" + std::to_string(day), "day_mined");
    }

    if (options.crash != nullptr &&
        options.crash->ShouldKill(KillPoint::kAfterDayMined, day)) {
      return CrashInjector::KilledStatus(KillPoint::kAfterDayMined, day);
    }
    if (checkpointing) {
      const std::string bytes =
          CheckpointBytes(id, state_hash, num_days, run);
      const int generation = day + 1;
      const std::string path =
          GenerationPath(options.checkpoint.dir, generation);
      if (options.crash != nullptr &&
          options.crash->ShouldKill(KillPoint::kMidSnapshotWrite, day)) {
        WriteTornSnapshot(path, bytes);
        return CrashInjector::KilledStatus(KillPoint::kMidSnapshotWrite, day);
      }
      LOGMINE_RETURN_IF_ERROR(RetryWithBackoff(
          options.checkpoint.retry, "write:" + path,
          [&] { return WriteSnapshotFile(path, bytes); }));
      ++run.resume.snapshots_written;
      if (ctx != nullptr) {
        ctx->journal().Emit(
            span + "/day" + std::to_string(day), "checkpoint_written",
            {obs::JournalField::Num("generation", generation),
             obs::JournalField::Num("bytes",
                                    static_cast<int64_t>(bytes.size()))});
      }
      PruneGenerations(options.checkpoint.dir, generation,
                       options.checkpoint.keep_generations);
    }
    if (options.crash != nullptr &&
        options.crash->ShouldKill(KillPoint::kAfterCheckpoint, day)) {
      return CrashInjector::KilledStatus(KillPoint::kAfterCheckpoint, day);
    }
  }
  if (options.obs != nullptr) {
    run.metrics = options.obs->metrics().Snapshot();
  }
  return run;
}

uint64_t CheckpointStateHash(uint64_t config_fingerprint,
                             const Dataset& dataset,
                             const core::ModelTrackerConfig& tracker) {
  core::Fingerprinter fp;
  fp.MixU64(config_fingerprint);
  fp.MixU64(dataset.simulation.seed);
  fp.MixI64(dataset.simulation.num_days);
  fp.MixDouble(dataset.simulation.scale);
  fp.MixI64(dataset.simulation.start);
  fp.MixU64(dataset.store.size());
  fp.MixI64(dataset.universe_pairs);
  fp.MixI64(dataset.universe_services);
  fp.MixU64(dataset.reference_pairs.size());
  fp.MixU64(dataset.reference_services.size());
  fp.MixI64(tracker.confirm_after);
  fp.MixI64(tracker.stale_after);
  fp.MixI64(tracker.retire_after);
  return fp.digest();
}

std::string CheckpointBytes(TechniqueId technique, uint64_t state_hash,
                            int num_days, const ResumableDailyResult& run) {
  SnapshotWriter w;
  w.BeginSection("meta");
  w.PutU32(static_cast<uint32_t>(technique));
  w.PutU64(state_hash);
  w.PutU32(static_cast<uint32_t>(num_days));
  w.PutU32(static_cast<uint32_t>(run.result.series.days.size()));
  w.EndSection();

  w.BeginSection("series");
  core::EncodeDailySeries(run.result.series, &w);
  w.EndSection();

  w.BeginSection("models");
  w.PutU64(run.result.daily_models.size());
  for (const core::DependencyModel& model : run.result.daily_models) {
    core::EncodeDependencyModel(model, &w);
  }
  w.EndSection();

  w.BeginSection("sessions");
  w.PutU64(run.session_stats.size());
  for (const core::SessionBuildStats& stats : run.session_stats) {
    core::EncodeSessionBuildStats(stats, &w);
  }
  w.EndSection();

  w.BeginSection("tracker");
  core::EncodeModelTracker(run.tracker, &w);
  w.EndSection();
  return std::move(w).Finish();
}

Result<std::vector<ResumableDailyResult>> RunSweepResumable(
    const Dataset& dataset, const std::vector<Technique>& techniques,
    const ResumableOptions& options) {
  using sim::CrashInjector;
  using sim::KillPoint;
  for (size_t i = 0; i < techniques.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (techniques[i].id() == techniques[j].id()) {
        return Status::InvalidArgument(std::string(techniques[i].name()) +
                                       " listed twice in one sweep");
      }
    }
  }
  std::vector<ResumableDailyResult> out;
  for (const Technique& technique : techniques) {
    if (!out.empty()) {
      const int index = static_cast<int>(out.size()) - 1;
      if (options.crash != nullptr &&
          options.crash->ShouldKill(KillPoint::kBetweenMiners, index)) {
        return CrashInjector::KilledStatus(KillPoint::kBetweenMiners, index);
      }
    }
    ResumableOptions sub = options;
    if (!sub.checkpoint.dir.empty()) {
      sub.checkpoint.dir =
          (fs::path(options.checkpoint.dir) / technique.name()).string();
    }
    LOGMINE_ASSIGN_OR_RETURN(ResumableDailyResult run,
                             RunDaily(dataset, technique, sub));
    out.push_back(std::move(run));
  }
  return out;
}

}  // namespace logmine::eval
