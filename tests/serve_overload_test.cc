// Tests for the serving front door: the AdmissionController and the
// MatchService overload behavior over HTTP, read back from /v1/metrics.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission.h"
#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/snapshot.h"
#include "testing/metrics.h"
#include "util/json.h"

namespace tdmatch {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::http::HttpClient;
using serve::http::HttpServer;
using serve::http::MatchService;
using serve::http::ServiceOptions;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, CapacityZeroShedsEverything) {
  AdmissionController gate(AdmissionOptions{0, 1, 30});
  EXPECT_FALSE(gate.TryAcquire());
  AdmissionController::Ticket ticket(&gate);
  EXPECT_FALSE(ticket.admitted());
  EXPECT_EQ(gate.shed(), 2u);
  EXPECT_EQ(gate.admitted(), 0u);
  EXPECT_EQ(gate.inflight(), 0u);
}

TEST(AdmissionTest, BurstExactlyAtTheLimit) {
  AdmissionController gate(AdmissionOptions{2, 1, 30});
  {
    AdmissionController::Ticket t1(&gate);
    AdmissionController::Ticket t2(&gate);
    EXPECT_TRUE(t1.admitted());
    EXPECT_TRUE(t2.admitted());
    EXPECT_EQ(gate.inflight(), 2u);

    // Exactly at the limit: the next request is shed, not queued.
    AdmissionController::Ticket t3(&gate);
    EXPECT_FALSE(t3.admitted());
    EXPECT_EQ(gate.shed(), 1u);
    EXPECT_EQ(gate.inflight(), 2u);
  }
  // RAII released both slots; capacity is back.
  EXPECT_EQ(gate.inflight(), 0u);
  AdmissionController::Ticket t4(&gate);
  EXPECT_TRUE(t4.admitted());
  EXPECT_EQ(gate.admitted(), 3u);
  EXPECT_EQ(gate.shed(), 1u);
}

TEST(AdmissionTest, TicketMoveTransfersTheSlot) {
  AdmissionController gate(AdmissionOptions{1, 1, 30});
  AdmissionController::Ticket a(&gate);
  EXPECT_TRUE(a.admitted());
  AdmissionController::Ticket b(std::move(a));
  EXPECT_TRUE(b.admitted());
  EXPECT_FALSE(a.admitted());  // NOLINT(bugprone-use-after-move): pinned
  EXPECT_EQ(gate.inflight(), 1u);  // exactly one slot, not two
}

TEST(AdmissionTest, DefaultIsUnlimited) {
  AdmissionController gate;
  EXPECT_TRUE(gate.unlimited());
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 100; ++i) tickets.emplace_back(&gate);
  for (const auto& t : tickets) EXPECT_TRUE(t.admitted());
  EXPECT_EQ(gate.shed(), 0u);
  EXPECT_EQ(gate.inflight(), 100u);
}

TEST(AdmissionTest, RetryAfterIsClampedWholeSeconds) {
  AdmissionController gate(AdmissionOptions{4, 1, 30});
  // Idle: the minimum applies.
  EXPECT_EQ(gate.RetryAfterSeconds(500.0), 1);
  EXPECT_EQ(gate.RetryAfterSeconds(0.0), 1);

  AdmissionController::Ticket t1(&gate);
  AdmissionController::Ticket t2(&gate);
  ASSERT_TRUE(t1.admitted() && t2.admitted());
  // 2 in flight at 700ms each = 1.4s backlog, rounded up to 2.
  EXPECT_EQ(gate.RetryAfterSeconds(700.0), 2);
  // Absurd per-query cost still clamps to the ceiling.
  EXPECT_EQ(gate.RetryAfterSeconds(1e9), 30);
  for (int i = 1; i <= 30; ++i) {
    const int s = gate.RetryAfterSeconds(static_cast<double>(i) * 997.0);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 30);
  }
}

// ---------------------------------------------------------------------------
// MatchService: shedding (over HTTP)
// ---------------------------------------------------------------------------

/// 2-d geometry: candidates c<i> fan around the circle and query q<i>
/// sits exactly on candidate c<i>.
std::string WriteGeometricSnapshot(const std::string& name, size_t n) {
  serve::Snapshot snap;
  snap.meta.scenario = "geometry";
  snap.meta.Set("candidate_prefix", "c");
  snap.meta.Set("query_prefix", "q");
  snap.table = embed::EmbeddingTable(2);
  for (const char* prefix : {"c", "q"}) {
    for (size_t i = 0; i < n; ++i) {
      const float angle =
          static_cast<float>(i) / static_cast<float>(n) * 3.1f;
      snap.table.Put(prefix + std::to_string(i),
                     {std::cos(angle), std::sin(angle)});
    }
  }
  const std::string path = TempPath(name);
  EXPECT_TRUE(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  return path;
}

struct ServiceFixture {
  explicit ServiceFixture(const std::string& snapshot_path,
                          ServiceOptions sopts = {}) : service(sopts) {
    util::Status st = service.LoadInitial(snapshot_path);
    EXPECT_TRUE(st.ok()) << st.ToString();
    service.Register(&server);
    st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~ServiceFixture() { server.Stop(); }

  MatchService service;
  HttpServer server;
};

TEST(OverloadServiceTest, MaxInflightZeroShedsWith429AndRetryAfter) {
  const std::string path = WriteGeometricSnapshot("svc_shed.tds", 8);
  ServiceOptions sopts;
  sopts.max_inflight = 0;  // drain mode: every query is shed
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 0; i < 3; ++i) {
    auto r = client->Post("/v1/query", "{\"label\": \"q0\"}");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 429) << r->body;
    // RFC 9110 delta-seconds: a bare integer in [1, 30].
    const std::string& retry = r->Header("retry-after");
    ASSERT_FALSE(retry.empty());
    EXPECT_EQ(retry.find_first_not_of("0123456789"), std::string::npos);
    const int seconds = std::stoi(retry);
    EXPECT_GE(seconds, 1);
    EXPECT_LE(seconds, 30);
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok()) << r->body;
    EXPECT_NE(doc->Find("error"), nullptr);
    EXPECT_EQ(doc->Find("retry_after_seconds")->number_value(),
              static_cast<double>(seconds));
  }

  // Shedding is not an engine error, and health stays green at capacity 0
  // — the whole point of failing fast at the front door.
  auto health = client->Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(fx.service.admission().shed(), 3u);
  EXPECT_EQ(fx.service.admission().admitted(), 0u);

  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(testutil::ScrapeValue(metrics->body,
                                  "tdmatch_admission_max_inflight"),
            0.0);
  EXPECT_EQ(
      testutil::ScrapeValue(metrics->body, "tdmatch_admission_shed_total"),
      3.0);
  std::remove(path.c_str());
}

TEST(OverloadServiceTest, OverlappingQueriesShedPastTheLimit) {
  const std::string path = WriteGeometricSnapshot("svc_burst.tds", 8);
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.allow_debug_delay = true;  // makes the in-flight overlap determinate
  ServiceFixture fx(path, sopts);

  // A slow query holds the only slot...
  std::thread slow([&] {
    auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
    ASSERT_TRUE(client.ok());
    auto r = client->Post("/v1/query",
                          "{\"label\": \"q0\", \"delay_ms\": 1500}");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 200) << r->body;
  });
  // ...wait until it is inside the admission window, then collide.
  for (int i = 0; i < 200 && fx.service.admission().inflight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fx.service.admission().inflight(), 1u);

  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto shed = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429) << shed->body;
  EXPECT_FALSE(shed->Header("retry-after").empty());
  slow.join();

  EXPECT_EQ(fx.service.admission().shed(), 1u);
  EXPECT_EQ(fx.service.admission().admitted(), 1u);
  EXPECT_EQ(fx.service.admission().inflight(), 0u);
  // Capacity is back after the slow query drains.
  auto ok = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200) << ok->body;
  std::remove(path.c_str());
}

TEST(OverloadServiceTest, MetricsExposeTheAdmissionBudget) {
  const std::string path = WriteGeometricSnapshot("svc_stats.tds", 16);
  ServiceOptions sopts;
  sopts.max_inflight = 7;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_EQ(testutil::ScrapeValue(metrics->body,
                                  "tdmatch_admission_max_inflight"),
            7.0);
  EXPECT_EQ(
      testutil::ScrapeValue(metrics->body, "tdmatch_admission_shed_total"),
      0.0);

  // Unlimited admission encodes as -1, not SIZE_MAX.
  ServiceOptions defaults;
  ServiceFixture unlimited(path, defaults);
  auto c2 = HttpClient::Connect("127.0.0.1", unlimited.server.port());
  ASSERT_TRUE(c2.ok());
  auto m2 = c2->Get("/v1/metrics");
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(
      testutil::ScrapeValue(m2->body, "tdmatch_admission_max_inflight"),
      -1.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdmatch
