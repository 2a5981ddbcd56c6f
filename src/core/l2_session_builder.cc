#include "core/l2_session_builder.h"

#include <cassert>
#include <ranges>

#include "log/filter.h"
#include "obs/obs.h"

namespace logmine::core {

std::vector<Session> SessionBuilder::Build(const LogStore& store,
                                           TimeMs begin, TimeMs end,
                                           SessionBuildStats* stats) const {
  // Default options can neither cancel nor time out, so the status is
  // always OK.
  return Build(store, begin, end, RunOptions{}, stats).value();
}

Result<std::vector<Session>> SessionBuilder::Build(
    const LogStore& store, TimeMs begin, TimeMs end,
    const RunOptions& options, SessionBuildStats* stats) const {
  assert(store.index_built());
  LOGMINE_SPAN_GLOBAL("l2/build_sessions", obs::Metric::kL2SessionBuildNs);
  const std::vector<uint32_t> indices = IndicesInRange(store, begin, end);
  SessionBuildStats local;
  auto sessions = BuildFromRows(
      indices | std::views::transform([&store](uint32_t idx) {
        return SessionRow{store.client_ts(idx), store.source_id(idx),
                          store.user_id(idx)};
      }),
      static_cast<int64_t>(indices.size()), options, &local);
  if (!sessions.ok()) return sessions;
  obs::Count(obs::Metric::kL2SessionsBuilt,
             static_cast<int64_t>(local.num_sessions));
  obs::Count(obs::Metric::kL2SessionLogsAssigned, local.logs_assigned);
  if (stats != nullptr) *stats = local;
  return sessions;
}

}  // namespace logmine::core
