#ifndef LOGMINE_CORE_L2_SESSION_BUILDER_H_
#define LOGMINE_CORE_L2_SESSION_BUILDER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "log/store.h"
#include "util/executor.h"
#include "util/result.h"
#include "util/time_util.h"

namespace logmine::core {

/// One log inside a reconstructed user session: only source and time are
/// used downstream — "a session is treated as an ordered sequence of
/// activity statements by different applications".
struct SessionLogEntry {
  TimeMs ts = 0;
  LogStore::SourceId source = 0;
};

/// One input row of a session build: a log's time, application and
/// user. Rows whose user is LogStore::kNoUser carry no context.
struct SessionRow {
  TimeMs ts = 0;
  LogStore::SourceId source = 0;
  LogStore::UserId user = LogStore::kNoUser;
};

/// A reconstructed user session.
struct Session {
  LogStore::UserId user = 0;
  std::vector<SessionLogEntry> entries;  ///< ordered by ts

  TimeMs start() const { return entries.empty() ? 0 : entries.front().ts; }
  TimeMs end() const { return entries.empty() ? 0 : entries.back().ts; }
};

/// Session reconstruction parameters. The paper's exact algorithm is
/// site-specific; we group context-bearing logs per user and split on
/// inactivity, which matches its observable outputs (session counts,
/// fraction of logs assigned).
struct SessionBuilderConfig {
  /// A gap longer than this ends the user's current session.
  TimeMs max_gap = 30 * kMillisPerMinute;
  /// Sessions with fewer logs are discarded as noise.
  size_t min_logs = 5;
};

/// Aggregate statistics of one build, mirroring §4.6's reporting.
struct SessionBuildStats {
  size_t num_sessions = 0;
  int64_t logs_considered = 0;  ///< logs in the interval
  int64_t logs_with_context = 0;
  int64_t logs_assigned = 0;    ///< in a surviving session
  double assigned_fraction = 0.0;
};

/// Groups the context-bearing logs of [begin, end) into user sessions.
class SessionBuilder {
 public:
  explicit SessionBuilder(SessionBuilderConfig config) : config_(config) {}

  /// Pre-condition: store.index_built(). `stats` may be null.
  std::vector<Session> Build(const LogStore& store, TimeMs begin, TimeMs end,
                             SessionBuildStats* stats) const;

  /// Cancellable/deadlined variant: `options.cancel` and
  /// `options.deadline` are checked every ~1k logs, so a long build
  /// returns Cancelled/DeadlineExceeded within a bounded slice of work
  /// instead of overrunning its budget. Output on OK is identical to
  /// the plain overload; `stats` is only written on OK.
  Result<std::vector<Session>> Build(const LogStore& store, TimeMs begin,
                                     TimeMs end, const RunOptions& options,
                                     SessionBuildStats* stats) const;

  /// Row entry point, shared by the store overloads and the sliding
  /// window (src/serve): groups `rows` — any range of time-ordered
  /// SessionRow-like values with `ts`, `source` and `user` — into
  /// sessions, skipping rows without context. `logs_considered` is the
  /// size of the interval the rows came from (the denominator of
  /// `assigned_fraction`). Stop checks as in the store overload.
  template <typename Rows>
  Result<std::vector<Session>> BuildFromRows(Rows&& rows,
                                             int64_t logs_considered,
                                             const RunOptions& options,
                                             SessionBuildStats* stats) const;

 private:
  SessionBuilderConfig config_;
};

template <typename Rows>
Result<std::vector<Session>> SessionBuilder::BuildFromRows(
    Rows&& rows, int64_t logs_considered, const RunOptions& options,
    SessionBuildStats* stats) const {
  const auto deadline = StopDeadline(options);
  const bool stoppable =
      options.cancel != nullptr ||
      deadline != std::chrono::steady_clock::time_point::max();
  std::vector<Session> sessions;
  std::map<LogStore::UserId, Session> open;
  SessionBuildStats local;
  local.logs_considered = logs_considered;

  auto finalize = [&](Session&& session) {
    if (session.entries.size() >= config_.min_logs) {
      local.logs_assigned += static_cast<int64_t>(session.entries.size());
      sessions.push_back(std::move(session));
    }
  };

  int64_t visited = 0;
  for (const auto& row : rows) {
    if (stoppable && (visited & 1023) == 0) {
      LOGMINE_RETURN_IF_ERROR(
          CheckStop(options.cancel, deadline, "session build"));
    }
    ++visited;
    if (row.user == LogStore::kNoUser) continue;
    ++local.logs_with_context;
    auto it = open.find(row.user);
    if (it != open.end() &&
        row.ts - it->second.entries.back().ts > config_.max_gap) {
      finalize(std::move(it->second));
      open.erase(it);
      it = open.end();
    }
    if (it == open.end()) {
      Session fresh;
      fresh.user = row.user;
      it = open.emplace(row.user, std::move(fresh)).first;
    }
    it->second.entries.push_back(SessionLogEntry{row.ts, row.source});
  }
  for (auto& [user, session] : open) {
    finalize(std::move(session));
  }

  local.num_sessions = sessions.size();
  local.assigned_fraction =
      local.logs_considered == 0
          ? 0.0
          : static_cast<double>(local.logs_assigned) /
                static_cast<double>(local.logs_considered);
  if (stats != nullptr) *stats = local;
  return sessions;
}

}  // namespace logmine::core

#endif  // LOGMINE_CORE_L2_SESSION_BUILDER_H_
