#include "obs/obs.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace logmine::obs {
namespace {

std::atomic<ObsContext*> g_global{nullptr};
// Outstanding AcquireGlobal() pins. The pin/uninstall handshake is a
// store-load pattern (reader: bump pin, then load the pointer; writer:
// store the pointer, then check pins), which is only correct under
// sequential consistency — acq/rel would let the reader's pointer load
// pass its own pin increment.
std::atomic<int> g_pins{0};

}  // namespace

ObsContext* Global() { return g_global.load(std::memory_order_acquire); }

void SetGlobal(ObsContext* context) {
  g_global.store(context, std::memory_order_seq_cst);
  // Wait out every pinned reader of the previous context: the caller
  // (typically ~ScopedGlobalObs) may destroy it right after we return.
  while (g_pins.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

ObsContext* AcquireGlobal() {
  g_pins.fetch_add(1, std::memory_order_seq_cst);
  ObsContext* context = g_global.load(std::memory_order_seq_cst);
  if (context == nullptr) {
    g_pins.fetch_sub(1, std::memory_order_seq_cst);
  }
  return context;
}

void ReleaseGlobal() { g_pins.fetch_sub(1, std::memory_order_seq_cst); }

void TraceSpan::Close() {
  const int64_t dur_ns = MonotonicNowNs() - start_ns_;
  thread_local const std::string thread_span =
      "thread-" + std::to_string(CurrentTraceThreadId());
  // Reused per thread: closing a span allocates nothing.
  thread_local std::vector<JournalField> fields = {
      JournalField::Num("dur_ns", 0)};
  fields[0].value = std::to_string(dur_ns);
  context_->journal().Emit(thread_span, name_, fields);
  if (latency_.has_value()) context_->metrics().Observe(*latency_, dur_ns);
}

}  // namespace logmine::obs
