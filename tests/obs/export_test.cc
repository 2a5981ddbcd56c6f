#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace logmine::obs {
namespace {

TEST(MangleMetricNameTest, ReplacesIllegalCharacters) {
  EXPECT_EQ(MangleMetricName("serve.query_ns"), "serve_query_ns");
  EXPECT_EQ(MangleMetricName("foo.bar-baz/qux"), "foo_bar_baz_qux");
  EXPECT_EQ(MangleMetricName("already_legal_123"), "already_legal_123");
}

TEST(MangleMetricNameTest, PrefixesLeadingDigit) {
  EXPECT_EQ(MangleMetricName("9lives"), "_9lives");
  EXPECT_EQ(MangleMetricName("0"), "_0");
}

// The golden: a fresh registry with three well-known metrics touched
// renders exactly these series (include_zero=false hides the untouched
// rest), in enum order. Counter and gauge values are exact by
// construction; a sketch's extreme quantiles are clamped to the
// observed min and max, so these are exact too.
TEST(ToOpenMetricsTest, GoldenRendering) {
  MetricsRegistry registry;
  registry.Add(Metric::kPipelineRuns, 7);
  registry.Add(Metric::kServeQueueDepth, 3);
  for (int64_t v : {1, 1, 1, 100}) registry.Observe(Metric::kServeQueryNs, v);

  OpenMetricsOptions options;
  options.include_zero = false;
  const std::string text = ToOpenMetrics(registry.Snapshot(), options);
  const std::string expected =
      "# TYPE logmine_pipeline_runs counter\n"
      "logmine_pipeline_runs_total 7\n"
      "# TYPE logmine_serve_queue_depth gauge\n"
      "logmine_serve_queue_depth 3\n"
      "# TYPE logmine_serve_query_ns summary\n"
      "logmine_serve_query_ns{quantile=\"0.5\"} 1\n"
      "logmine_serve_query_ns{quantile=\"0.9\"} 100\n"
      "logmine_serve_query_ns{quantile=\"0.99\"} 100\n"
      "logmine_serve_query_ns{quantile=\"0.999\"} 100\n"
      "logmine_serve_query_ns_sum 103\n"
      "logmine_serve_query_ns_count 4\n";
  EXPECT_EQ(text, expected);
}

TEST(ToOpenMetricsTest, SketchRendersAsSummaryWithinRelativeError) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) {
    registry.Observe(Metric::kServePublishNs, 1000);
  }

  OpenMetricsOptions options;
  options.include_zero = false;
  const std::string text = ToOpenMetrics(registry.Snapshot(), options);
  EXPECT_NE(text.find("# TYPE logmine_serve_publish_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_serve_publish_ns_sum 100000\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_serve_publish_ns_count 100\n"),
            std::string::npos);
  for (const char* quantile : {"0.5", "0.9", "0.99", "0.999"}) {
    const std::string needle =
        std::string("logmine_serve_publish_ns{quantile=\"") + quantile +
        "\"} ";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    const long value = std::strtol(text.c_str() + at + needle.size(),
                                   nullptr, 10);
    // Every quantile of a constant stream is the constant, up to the
    // sketch's 1% relative-error bound.
    EXPECT_NEAR(static_cast<double>(value), 1000.0, 10.0) << quantile;
  }
}

TEST(ToOpenMetricsTest, IncludeZeroRendersWellKnownMetrics) {
  MetricsRegistry registry;
  const std::string text = ToOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE logmine_pipeline_runs counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_pipeline_runs_total 0\n"), std::string::npos);
  // Untouched sketches still render their quantiles, sum and count.
  EXPECT_NE(text.find("logmine_serve_ingest_ns{quantile=\"0.5\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_serve_ingest_ns_count 0\n"),
            std::string::npos);
}

TEST(ToOpenMetricsTest, CounterAlreadyNamedTotalIsNotDoubled) {
  MetricsRegistry registry;
  registry.Add(Metric::kIngestLinesTotal, 5);
  OpenMetricsOptions options;
  options.include_zero = false;
  EXPECT_EQ(ToOpenMetrics(registry.Snapshot(), options),
            "# TYPE logmine_ingest_lines counter\n"
            "logmine_ingest_lines_total 5\n");
}

TEST(ToOpenMetricsTest, CustomPrefix) {
  MetricsRegistry registry;
  registry.Add(Metric::kL1Runs, 1);
  OpenMetricsOptions options;
  options.prefix = "acme_";
  options.include_zero = false;
  EXPECT_EQ(ToOpenMetrics(registry.Snapshot(), options),
            "# TYPE acme_l1_runs counter\nacme_l1_runs_total 1\n");
}

}  // namespace
}  // namespace logmine::obs
