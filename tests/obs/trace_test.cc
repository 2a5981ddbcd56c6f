// The journal's bounded ring is the process's trace recorder: every
// closed TraceSpan is a journal event carrying its duration, and
// JournalToChromeTrace is the one Chrome exporter. These are the
// recorder's contracts — order, a newest-window ring, lossless
// concurrent recording, a valid trace envelope — plus the span and
// clock primitives that feed it.

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/journal.h"
#include "obs/obs.h"

namespace logmine::obs {
namespace {

TEST(TraceRecorderTest, KeepsEventsInOrder) {
  Journal journal;
  journal.Emit("s", "first");
  journal.Emit("s", "second");
  const std::vector<std::string> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_NE(tail[0].find("\"event\":\"first\""), std::string::npos);
  EXPECT_NE(tail[1].find("\"event\":\"second\""), std::string::npos);
  EXPECT_EQ(journal.events_emitted(), 2u);
}

// The flight-recorder contract: overflow forgets the OLDEST events; the
// retained window is the most recent kTailCapacity, oldest first.
TEST(TraceRecorderTest, RingOverflowKeepsTheMostRecentWindow) {
  Journal journal;
  constexpr int kDropped = 6;
  const int total = static_cast<int>(Journal::kTailCapacity) + kDropped;
  for (int i = 0; i < total; ++i) {
    journal.Emit("span", "event", {JournalField::Num("i", i)});
  }
  const std::vector<std::string> tail = journal.Tail(Journal::kTailCapacity);
  ASSERT_EQ(tail.size(), Journal::kTailCapacity);
  for (size_t i = 0; i < tail.size(); i += 511) {
    EXPECT_NE(tail[i].find("\"i\":" + std::to_string(kDropped + i) + "}"),
              std::string::npos)
        << i;
  }
}

TEST(TraceRecorderTest, ConcurrentRecordingLosesNothingUnderCapacity) {
  Journal journal;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  static_assert(kThreads * kPerThread <= Journal::kTailCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Emit("worker", "tick", {JournalField::Num("dur_ns", 1)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(journal.events_emitted(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(journal.Tail(Journal::kTailCapacity).size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

// Structural checks on the Chrome trace_event format of real spans: the
// envelope, one complete ("X") event per span named after its thread
// and span, pid/tid/ts/dur fields, and balanced JSON.
TEST(TraceRecorderTest, ChromeTraceJsonHasTheExpectedStructure) {
  ObsContext context;
  {
    TraceSpan outer(&context, "pipeline/run");
    TraceSpan inner(&context, "l1/mine");
  }
  const std::string json =
      JournalToChromeTrace(context.journal().Tail(Journal::kTailCapacity));
  const std::string thread =
      "thread-" + std::to_string(CurrentTraceThreadId());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"" + thread + " pipeline/run\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"" + thread + " l1/mine\""),
            std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), 'X'), 2);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":1,\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

TEST(TraceRecorderTest, EmptyRecorderStillExportsAValidEnvelope) {
  Journal journal;
  EXPECT_EQ(JournalToChromeTrace(journal.Tail(Journal::kTailCapacity)),
            "{\"traceEvents\":[]}");
  EXPECT_EQ(JournalToChromeTrace(std::string_view()), "{\"traceEvents\":[]}");
}

TEST(TraceSpanTest, SpanRecordsDurationAndOptionalHistogram) {
  ObsContext context;
  {
    TraceSpan span(&context, "unit/scope", Metric::kEvalDayNs);
    // Spin briefly so the duration is visibly non-negative.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  // One journal event named after the span, under the thread's span id,
  // carrying its duration ...
  const std::vector<std::string> tail = context.journal().Tail(10);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_NE(tail[0].find("\"span\":\"thread-" +
                         std::to_string(CurrentTraceThreadId()) + "\""),
            std::string::npos);
  EXPECT_NE(tail[0].find("\"event\":\"unit/scope\""), std::string::npos);
  EXPECT_NE(tail[0].find("\"dur_ns\":"), std::string::npos);
  EXPECT_EQ(tail[0].find("\"dur_ns\":-"), std::string::npos);
  // ... plus one observation in the span's latency sketch.
  const MetricsSnapshot snap = context.metrics().Snapshot();
  const MetricsSnapshot::Entry* latency = snap.Find("eval.day_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->sketch.count(), 1);
  EXPECT_EQ(snap.Value("journal.events_emitted"), 1);
}

TEST(TraceSpanTest, NullContextSpanIsANoop) {
  { TraceSpan span(nullptr, "noop"); }
  { LOGMINE_SPAN(nullptr, "noop/macro"); }
  SUCCEED();
}

TEST(MonotonicClockTest, NowIsMonotonicAndThreadIdsAreStable) {
  const int64_t a = MonotonicNowNs();
  const int64_t b = MonotonicNowNs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
  const uint32_t tid = CurrentTraceThreadId();
  EXPECT_EQ(CurrentTraceThreadId(), tid);
  uint32_t other = tid;
  std::thread([&other] { other = CurrentTraceThreadId(); }).join();
  EXPECT_NE(other, tid);
}

}  // namespace
}  // namespace logmine::obs
