#ifndef TDMATCH_TESTS_TESTING_METRICS_H_
#define TDMATCH_TESTS_TESTING_METRICS_H_

#include <string>

namespace tdmatch {
namespace testutil {

/// Value of the sample line `series` in a Prometheus text exposition (as
/// served by GET /v1/metrics), or NaN when no line carries it. `series`
/// is the metric name plus its rendered label set, if any — e.g.
/// `tdmatch_admission_shed_total` or
/// `tdmatch_request_stage_latency_ms_count{stage="search"}`.
double ScrapeValue(const std::string& text, const std::string& series);

/// The first sample line of metric `name` (name, labels and value), or an
/// empty string when the exposition has none.
std::string ScrapeLine(const std::string& text, const std::string& name);

}  // namespace testutil
}  // namespace tdmatch

#endif  // TDMATCH_TESTS_TESTING_METRICS_H_
