#include "serve/sliding_window.h"

#include <algorithm>
#include <ranges>
#include <string>
#include <tuple>
#include <utility>

#include "core/serialization.h"
#include "obs/obs.h"

namespace logmine::serve {
namespace {

// Builds an indexed LogStore holding exactly one epoch's records,
// verifying every record lies inside the batch's bounds.
Result<LogStore> BuildEpochStore(const EpochBatch& batch) {
  LogStore store;
  for (const LogRecord& record : batch.records) {
    if (record.client_ts < batch.begin || record.client_ts >= batch.end) {
      return Status::InvalidArgument(
          "poison batch: record client_ts " +
          std::to_string(record.client_ts) + " outside epoch [" +
          std::to_string(batch.begin) + ", " + std::to_string(batch.end) +
          ")");
    }
    Status appended = store.Append(record);
    if (!appended.ok()) {
      return Status::InvalidArgument("poison batch: " +
                                     std::string(appended.message()));
    }
  }
  store.BuildIndex();
  return store;
}

}  // namespace

Result<std::vector<EpochBatch>> SplitIntoEpochBatches(const LogStore& store,
                                                      TimeMs begin, TimeMs end,
                                                      TimeMs epoch_length) {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  if (epoch_length <= 0 || end <= begin ||
      (end - begin) % epoch_length != 0) {
    return Status::InvalidArgument(
        "[begin, end) must be a positive whole number of epochs");
  }
  const size_t num_epochs =
      static_cast<size_t>((end - begin) / epoch_length);
  std::vector<EpochBatch> batches(num_epochs);
  for (size_t k = 0; k < num_epochs; ++k) {
    batches[k].begin = begin + static_cast<TimeMs>(k) * epoch_length;
    batches[k].end = batches[k].begin + epoch_length;
  }
  for (uint32_t idx : store.TimeOrder()) {
    const TimeMs ts = store.client_ts(idx);
    if (ts < begin || ts >= end) continue;
    const size_t k = static_cast<size_t>((ts - begin) / epoch_length);
    batches[k].records.push_back(store.GetRecord(idx));
  }
  return batches;
}

SlidingWindowMiner::SlidingWindowMiner(SlidingWindowConfig config)
    : config_(std::move(config)), fingerprint_(Fingerprint(config_)) {}

Result<SlidingWindowMiner> SlidingWindowMiner::Create(
    SlidingWindowConfig config) {
  if (config.epoch_length <= 0) {
    return Status::InvalidArgument("epoch_length must be positive");
  }
  if (config.window_epochs < 1) {
    return Status::InvalidArgument("window_epochs must be >= 1");
  }
  if (config.l1.adaptive_slots) {
    return Status::InvalidArgument(
        "sliding windows need the fixed slot grid (adaptive_slots=false)");
  }
  if (config.l1.th_s > 1.0) {
    return Status::InvalidArgument("l1.th_s must be a fraction in [0, 1]");
  }
  // One epoch = one L1 slot, and per-(slot, source) randomness keyed by
  // the absolute grid so each epoch's outcome is independent of the
  // window position it is later aggregated under.
  config.l1.slot_length = config.epoch_length;
  if (config.l1.salt_anchor == core::L1Config::kNoSaltAnchor) {
    config.l1.salt_anchor = 0;
  }
  return SlidingWindowMiner(std::move(config));
}

uint64_t SlidingWindowMiner::Fingerprint(const SlidingWindowConfig& config) {
  core::Fingerprinter fp;
  fp.MixI64(config.epoch_length);
  fp.MixI64(config.window_epochs);
  fp.MixU64(core::ConfigFingerprint(config.l1));
  fp.MixU64(core::ConfigFingerprint(config.l2));
  fp.MixU64(core::ConfigFingerprint(config.l3));
  fp.MixU64(config.vocabulary.entries.size());
  for (const core::ServiceVocabulary::Entry& entry :
       config.vocabulary.entries) {
    fp.MixString(entry.id);
    fp.MixString(entry.root_url);
  }
  return fp.digest();
}

uint32_t SlidingWindowMiner::Intern(
    std::string_view name, std::vector<std::string>* names,
    std::map<std::string, uint32_t, std::less<>>* index) {
  auto it = index->find(name);
  if (it != index->end()) return it->second;
  const auto id = static_cast<uint32_t>(names->size());
  names->emplace_back(name);
  index->emplace(std::string(name), id);
  return id;
}

TimeMs SlidingWindowMiner::window_end() const {
  return epochs_.empty() ? 0 : epochs_.back().begin + config_.epoch_length;
}

TimeMs SlidingWindowMiner::window_begin() const {
  return epochs_.empty()
             ? 0
             : window_end() - static_cast<TimeMs>(config_.window_epochs) *
                                  config_.epoch_length;
}

Status SlidingWindowMiner::IngestEpoch(const EpochBatch& batch) {
  if (batch.end - batch.begin != config_.epoch_length) {
    return Status::InvalidArgument("batch must span exactly one epoch");
  }
  const TimeMs anchored = batch.begin - config_.l1.salt_anchor;
  if (anchored % config_.epoch_length != 0) {
    return Status::InvalidArgument("batch not aligned to the epoch grid");
  }
  if (!epochs_.empty() &&
      batch.begin < epochs_.back().begin + config_.epoch_length) {
    return Status::InvalidArgument(
        "batch begins before the current window end (epochs must arrive "
        "in order)");
  }
  LOGMINE_ASSIGN_OR_RETURN(const LogStore store, BuildEpochStore(batch));

  // Mine the hour in isolation first; state is only touched once every
  // fallible step has succeeded, so a poison batch leaves the window
  // exactly as it was.
  core::L1ActivityMiner l1_miner(config_.l1);
  LOGMINE_ASSIGN_OR_RETURN(const core::L1Result l1,
                           l1_miner.Mine(store, batch.begin, batch.end));
  // An empty vocabulary means there is nothing to cite, not a poison
  // batch: skip L3 instead of quarantining every epoch.
  core::L3Result l3;
  if (!config_.vocabulary.entries.empty()) {
    core::L3TextMiner l3_miner(config_.vocabulary, config_.l3);
    LOGMINE_ASSIGN_OR_RETURN(l3,
                             l3_miner.Mine(store, batch.begin, batch.end));
  }

  EpochState epoch;
  epoch.begin = batch.begin;
  epoch.logs_considered = static_cast<int64_t>(store.size());
  epoch.logs_scanned = l3.logs_scanned;
  epoch.logs_stopped = l3.logs_stopped;
  // L1: one slot, so every listed pair has support 1; keep the
  // positivity bit under ids ordered by *name* — the key the window
  // aggregation groups by.
  epoch.l1_pairs.reserve(l1.pairs.size());
  for (const core::L1PairResult& pr : l1.pairs) {
    if (pr.slots_supported != 1) continue;
    std::string_view name_a = store.source_name(pr.a);
    std::string_view name_b = store.source_name(pr.b);
    if (name_b < name_a) std::swap(name_a, name_b);
    EpochPair pair;
    pair.a = Intern(name_a, &source_names_, &source_index_);
    pair.b = Intern(name_b, &source_names_, &source_index_);
    pair.positive = pr.slots_positive > 0;
    epoch.l1_pairs.push_back(pair);
  }
  // L2: the compact columns session rebuild needs, in the store's time
  // order (ties broken by insertion order, same as a batch mine sees).
  for (uint32_t idx : store.TimeOrder()) {
    const LogStore::UserId user = store.user_id(idx);
    if (user == LogStore::kNoUser) continue;
    ContextLog log;
    log.ts = store.client_ts(idx);
    log.source =
        Intern(store.source_name(store.source_id(idx)), &source_names_,
               &source_index_);
    log.user = Intern(store.user_name(user), &user_names_, &user_index_);
    epoch.context.push_back(log);
  }
  // L3: additive citation counters.
  epoch.citations.reserve(l3.citations.size());
  for (const core::L3Citation& citation : l3.citations) {
    EpochCitation counter;
    counter.app = Intern(store.source_name(citation.app), &source_names_,
                         &source_index_);
    counter.entry = citation.entry;
    counter.count = citation.count;
    epoch.citations.push_back(counter);
  }

  epochs_.push_back(std::move(epoch));
  ++epochs_ingested_;
  const TimeMs keep_from = window_begin();
  while (!epochs_.empty() && epochs_.front().begin < keep_from) {
    epochs_.pop_front();
    ++epochs_aged_out_;
  }
  return Status::OK();
}

Result<WindowModelSet> SlidingWindowMiner::MineWindow(
    const RunOptions& options) const {
  if (epochs_.empty()) {
    return Status::FailedPrecondition("no epochs ingested yet");
  }
  const auto deadline = StopDeadline(options);
  WindowModelSet out;
  out.window_begin = window_begin();
  out.window_end = window_end();
  out.slots_total = config_.window_epochs;

  // --- L1: per-slot outcomes are additive; re-apply the support and
  // ratio thresholds over the whole window, exactly as the batch miner
  // does over its slot grid (missing epochs are slots where no pair has
  // support — they count toward slots_total and nothing else).
  std::map<core::NamePair, std::pair<int, int>> l1_acc;
  for (const EpochState& epoch : epochs_) {
    for (const EpochPair& pair : epoch.l1_pairs) {
      auto& [supported, positive] = l1_acc[core::NamePair(
          source_names_[pair.a], source_names_[pair.b])];
      ++supported;
      if (pair.positive) ++positive;
    }
  }
  const double min_support =
      config_.l1.th_s * static_cast<double>(out.slots_total);
  for (const auto& [names, counts] : l1_acc) {
    WindowPairStat stat;
    stat.names = names;
    stat.slots_supported = counts.first;
    const bool reaches =
        static_cast<double>(stat.slots_supported) >= min_support;
    stat.slots_positive = reaches ? counts.second : 0;
    stat.positive_ratio =
        stat.slots_supported == 0
            ? 0.0
            : static_cast<double>(stat.slots_positive) /
                  static_cast<double>(stat.slots_supported);
    stat.dependent = reaches && stat.positive_ratio >= config_.l1.th_pr;
    if (stat.dependent) out.l1.Insert(stat.names);
    out.l1_pairs.push_back(std::move(stat));
  }

  // --- L2: sessions straddle epoch boundaries, so rebuild them over
  // the concatenated context columns (epoch time ranges are disjoint
  // and stored in order, so the concatenation is the window's time
  // order), then score with the store-free miner core.
  int64_t logs_considered = 0;
  for (const EpochState& epoch : epochs_) {
    logs_considered += epoch.logs_considered;
  }
  core::SessionBuildStats stats;
  LOGMINE_ASSIGN_OR_RETURN(
      const std::vector<core::Session> sessions,
      core::SessionBuilder(config_.l2.session)
          .BuildFromRows(epochs_ | std::views::transform(&EpochState::context) |
                             std::views::join,
                         logs_considered, RemainingOptions(options, deadline),
                         &stats));
  core::L2CooccurrenceMiner l2_miner(config_.l2);
  LOGMINE_ASSIGN_OR_RETURN(
      const core::L2Result l2,
      l2_miner.MineSessions(source_names_.size(), sessions,
                            RemainingOptions(options, deadline)));
  out.session_stats = stats;
  out.num_bigrams = l2.num_bigrams;
  out.l2_scores.reserve(l2.scored.size());
  for (const core::L2PairScore& score : l2.scored) {
    WindowL2Score named;
    named.a = source_names_[score.a];
    named.b = source_names_[score.b];
    named.o11 = score.table.o11;
    named.score = score.score;
    named.p_value = score.p_value;
    named.dependent = score.dependent;
    if (named.dependent) {
      out.l2.Insert(core::MakeUnorderedPair(named.a, named.b));
    }
    out.l2_scores.push_back(std::move(named));
  }
  std::sort(out.l2_scores.begin(), out.l2_scores.end(),
            [](const WindowL2Score& x, const WindowL2Score& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });

  // --- L3: citation counters are additive; re-apply min_citations over
  // the window totals.
  std::map<std::pair<std::string, std::string>, int64_t> l3_acc;
  for (const EpochState& epoch : epochs_) {
    out.logs_scanned += epoch.logs_scanned;
    out.logs_stopped += epoch.logs_stopped;
    for (const EpochCitation& citation : epoch.citations) {
      l3_acc[{source_names_[citation.app],
              config_.vocabulary.entries[citation.entry].id}] +=
          citation.count;
    }
  }
  for (const auto& [key, count] : l3_acc) {
    WindowCitation citation;
    citation.app = key.first;
    citation.entry_id = key.second;
    citation.count = count;
    citation.dependent = count >= config_.l3.min_citations;
    if (citation.dependent) {
      out.l3.Insert(core::NamePair(citation.app, citation.entry_id));
    }
    out.citations.push_back(std::move(citation));
  }

  out.combined = out.l1.Union(out.l2);
  return out;
}

void SlidingWindowMiner::EncodeState(SnapshotWriter* w) const {
  w->PutU64(fingerprint_);
  w->PutI64(epochs_ingested_);
  w->PutI64(epochs_aged_out_);
  w->PutU64(source_names_.size());
  for (const std::string& name : source_names_) w->PutString(name);
  w->PutU64(user_names_.size());
  for (const std::string& name : user_names_) w->PutString(name);
  w->PutU64(epochs_.size());
  for (const EpochState& epoch : epochs_) {
    w->PutI64(epoch.begin);
    w->PutI64(epoch.logs_considered);
    w->PutI64(epoch.logs_scanned);
    w->PutI64(epoch.logs_stopped);
    w->PutU64(epoch.l1_pairs.size());
    for (const EpochPair& pair : epoch.l1_pairs) {
      w->PutU32(pair.a);
      w->PutU32(pair.b);
      w->PutBool(pair.positive);
    }
    w->PutU64(epoch.context.size());
    for (const ContextLog& log : epoch.context) {
      w->PutI64(log.ts);
      w->PutU32(log.source);
      w->PutU32(log.user);
    }
    w->PutU64(epoch.citations.size());
    for (const EpochCitation& citation : epoch.citations) {
      w->PutU32(citation.app);
      w->PutU64(citation.entry);
      w->PutI64(citation.count);
    }
  }
}

Result<SlidingWindowMiner> SlidingWindowMiner::DecodeState(
    const SlidingWindowConfig& config, SectionCursor* c) {
  LOGMINE_ASSIGN_OR_RETURN(SlidingWindowMiner miner, Create(config));
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t fingerprint, c->ReadU64());
  if (fingerprint != miner.fingerprint_) {
    return Status::FailedPrecondition(
        "persisted streaming state was produced under a different config "
        "(fingerprint mismatch)");
  }
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_ingested_, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_aged_out_, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_sources, c->ReadU64());
  for (uint64_t i = 0; i < num_sources; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(std::string name, c->ReadString());
    miner.Intern(name, &miner.source_names_, &miner.source_index_);
  }
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_users, c->ReadU64());
  for (uint64_t i = 0; i < num_users; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(std::string name, c->ReadString());
    miner.Intern(name, &miner.user_names_, &miner.user_index_);
  }
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_epochs, c->ReadU64());
  for (uint64_t e = 0; e < num_epochs; ++e) {
    EpochState epoch;
    LOGMINE_ASSIGN_OR_RETURN(epoch.begin, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_considered, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_scanned, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_stopped, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_pairs, c->ReadU64());
    epoch.l1_pairs.reserve(num_pairs);
    for (uint64_t i = 0; i < num_pairs; ++i) {
      EpochPair pair;
      LOGMINE_ASSIGN_OR_RETURN(pair.a, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.b, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.positive, c->ReadBool());
      if (pair.a >= miner.source_names_.size() ||
          pair.b >= miner.source_names_.size()) {
        return Status::ParseError("epoch pair source id out of range");
      }
      epoch.l1_pairs.push_back(pair);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_context, c->ReadU64());
    epoch.context.reserve(num_context);
    for (uint64_t i = 0; i < num_context; ++i) {
      ContextLog log;
      LOGMINE_ASSIGN_OR_RETURN(log.ts, c->ReadI64());
      LOGMINE_ASSIGN_OR_RETURN(log.source, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(log.user, c->ReadU32());
      if (log.source >= miner.source_names_.size() ||
          log.user >= miner.user_names_.size()) {
        return Status::ParseError("context log id out of range");
      }
      epoch.context.push_back(log);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_citations, c->ReadU64());
    epoch.citations.reserve(num_citations);
    for (uint64_t i = 0; i < num_citations; ++i) {
      EpochCitation citation;
      LOGMINE_ASSIGN_OR_RETURN(citation.app, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(citation.entry, c->ReadU64());
      LOGMINE_ASSIGN_OR_RETURN(citation.count, c->ReadI64());
      if (citation.app >= miner.source_names_.size() ||
          citation.entry >= config.vocabulary.entries.size()) {
        return Status::ParseError("citation id out of range");
      }
      epoch.citations.push_back(citation);
    }
    miner.epochs_.push_back(std::move(epoch));
  }
  return miner;
}

}  // namespace logmine::serve
