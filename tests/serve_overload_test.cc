// Tests for the serving front door: the AdmissionController + NprobeTuner
// knobs, the striped LRU ResultCache, and the MatchService overload and
// caching behavior over HTTP.

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
#include "serve/result_cache.h"
#include "serve/snapshot.h"
#include "util/json.h"

namespace tdmatch {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::NprobeTuner;
using serve::NprobeTunerOptions;
using serve::ResultCache;
using serve::ResultCacheOptions;
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
// NprobeTuner
// ---------------------------------------------------------------------------

TEST(NprobeTunerTest, DisabledWithoutBudget) {
  NprobeTuner tuner;  // budget_ms defaults to 0
  EXPECT_FALSE(tuner.enabled());
  for (int i = 0; i < 200; ++i) tuner.Observe(1e6);
  EXPECT_EQ(tuner.observed(), 0u);
  EXPECT_EQ(tuner.adjustments(), 0u);
}

TEST(NprobeTunerTest, MultiplicativeBackoffOverBudget) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.min_nprobe = 2;
  opts.max_nprobe = 64;
  opts.initial_nprobe = 16;
  opts.window = 4;
  NprobeTuner tuner(opts);
  ASSERT_TRUE(tuner.enabled());
  EXPECT_EQ(tuner.nprobe(), 16u);

  auto window_over_budget = [&] {
    for (int i = 0; i < 4; ++i) tuner.Observe(50.0);
  };
  window_over_budget();
  EXPECT_EQ(tuner.nprobe(), 8u);
  window_over_budget();
  EXPECT_EQ(tuner.nprobe(), 4u);
  window_over_budget();
  EXPECT_EQ(tuner.nprobe(), 2u);
  window_over_budget();
  EXPECT_EQ(tuner.nprobe(), 2u);  // floored at min_nprobe
  EXPECT_EQ(tuner.adjustments(), 3u);  // the floor window changed nothing
}

TEST(NprobeTunerTest, AdditiveRecoveryUnderHalfBudget) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.min_nprobe = 1;
  opts.max_nprobe = 6;
  opts.initial_nprobe = 4;
  opts.window = 2;
  NprobeTuner tuner(opts);
  tuner.Observe(1.0);
  EXPECT_EQ(tuner.nprobe(), 4u);  // mid-window: no change yet
  tuner.Observe(1.0);
  EXPECT_EQ(tuner.nprobe(), 5u);
  tuner.Observe(1.0);
  tuner.Observe(1.0);
  EXPECT_EQ(tuner.nprobe(), 6u);
  tuner.Observe(1.0);
  tuner.Observe(1.0);
  EXPECT_EQ(tuner.nprobe(), 6u);  // capped at max_nprobe
}

TEST(NprobeTunerTest, HoldsInsideTheDeadband) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.initial_nprobe = 4;
  opts.window = 2;
  NprobeTuner tuner(opts);
  // Between half the budget and the budget: neither direction moves.
  for (int i = 0; i < 10; ++i) tuner.Observe(7.0);
  EXPECT_EQ(tuner.nprobe(), 4u);
  EXPECT_EQ(tuner.adjustments(), 0u);
  EXPECT_EQ(tuner.observed(), 10u);
}

TEST(NprobeTunerTest, ConstructorClampsDegenerateOptions) {
  NprobeTunerOptions opts;
  opts.budget_ms = 5.0;
  opts.min_nprobe = 0;   // -> 1
  opts.max_nprobe = 0;   // -> min
  opts.initial_nprobe = 99;  // -> clamped into [min, max]
  opts.window = 0;       // -> 1
  NprobeTuner tuner(opts);
  EXPECT_EQ(tuner.nprobe(), 1u);
  EXPECT_EQ(tuner.options().window, 1u);
  tuner.Observe(100.0);  // window 1: adjusts every observation, stays >= 1
  EXPECT_EQ(tuner.nprobe(), 1u);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, DisabledAtZeroCapacity) {
  ResultCache cache;  // capacity 0
  EXPECT_FALSE(cache.enabled());
  cache.Put("k", 1, "body");
  std::string out;
  EXPECT_FALSE(cache.Get("k", 1, &out));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // disabled Get doesn't even count
}

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  // One stripe makes the LRU order global and the test deterministic.
  ResultCache cache(ResultCacheOptions{2, 1});
  cache.Put("a", 1, "A");
  cache.Put("b", 1, "B");
  std::string out;
  ASSERT_TRUE(cache.Get("a", 1, &out));  // "a" is now hottest
  EXPECT_EQ(out, "A");

  cache.Put("c", 1, "C");  // evicts "b", the LRU entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Get("b", 1, &out));
  ASSERT_TRUE(cache.Get("a", 1, &out));
  ASSERT_TRUE(cache.Get("c", 1, &out));
  EXPECT_EQ(out, "C");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, VersionMismatchErasesTheStaleEntry) {
  ResultCache cache(ResultCacheOptions{4, 1});
  cache.Put("q", 1, "old epoch");
  std::string out;
  EXPECT_FALSE(cache.Get("q", 2, &out));  // stale stamp: miss + erase
  EXPECT_EQ(cache.size(), 0u);
  // Even the original version can't resurrect it.
  EXPECT_FALSE(cache.Get("q", 1, &out));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ResultCacheTest, PutRefreshesInPlace) {
  ResultCache cache(ResultCacheOptions{2, 1});
  cache.Put("k", 1, "v1");
  cache.Put("k", 2, "v2");  // refresh, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  std::string out;
  EXPECT_FALSE(cache.Get("k", 1, &out));  // old stamp is gone
  cache.Put("k", 2, "v2");
  ASSERT_TRUE(cache.Get("k", 2, &out));
  EXPECT_EQ(out, "v2");
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(ResultCacheOptions{16, 4});
  for (int i = 0; i < 12; ++i) {
    cache.Put("key" + std::to_string(i), 1, "v");
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  std::string out;
  EXPECT_FALSE(cache.Get("key3", 1, &out));
}

TEST(ResultCacheTest, StripesNeverExceedCapacity) {
  // capacity 4 with 8 requested stripes: the ctor clamps to one entry per
  // stripe rather than silently growing the budget to 8.
  ResultCache cache(ResultCacheOptions{4, 8});
  EXPECT_EQ(cache.options().stripes, 4u);
  for (int i = 0; i < 64; ++i) {
    cache.Put("key" + std::to_string(i), 1, "v");
  }
  EXPECT_LE(cache.size(), 4u);
}

// ---------------------------------------------------------------------------
// MatchService: shedding and cache-on-reload (over HTTP)
// ---------------------------------------------------------------------------

/// 2-d geometry: candidates c<i> fan around the circle, queries q<i> sit
/// exactly on candidate (i + shift) mod n.
serve::Snapshot GeometricSnapshot(size_t n, size_t shift = 0) {
  serve::Snapshot snap;
  snap.meta.scenario = "geometry";
  snap.meta.Set("candidate_prefix", "c");
  snap.meta.Set("query_prefix", "q");
  snap.table = embed::EmbeddingTable(2);
  for (size_t i = 0; i < n; ++i) {
    const float angle =
        static_cast<float>(i) / static_cast<float>(n) * 3.1f;
    snap.table.Put("c" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  for (size_t i = 0; i < n; ++i) {
    const float angle = static_cast<float>((i + shift) % n) /
                        static_cast<float>(n) * 3.1f;
    snap.table.Put("q" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  return snap;
}

std::string WriteGeometricSnapshot(const std::string& name, size_t n,
                                   size_t shift) {
  const std::string path = TempPath(name);
  serve::Snapshot snap = GeometricSnapshot(n, shift);
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

using Matches = std::vector<std::pair<std::string, double>>;

Matches ParseMatches(const util::JsonValue& container) {
  Matches out;
  const util::JsonValue* matches = container.Find("matches");
  EXPECT_NE(matches, nullptr);
  if (matches == nullptr) return out;
  for (const auto& m : matches->items()) {
    out.emplace_back(m.Find("label")->string_value(),
                     m.Find("score")->number_value());
  }
  return out;
}

TEST(OverloadServiceTest, MaxInflightZeroShedsWith429AndRetryAfter) {
  const std::string path = WriteGeometricSnapshot("svc_shed.tds", 8, 0);
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

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = util::JsonParse(stats->body);
  ASSERT_TRUE(doc.ok());
  const util::JsonValue* admission = doc->Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->Find("max_inflight")->number_value(), 0.0);
  EXPECT_EQ(admission->Find("shed")->number_value(), 3.0);
  std::remove(path.c_str());
}

TEST(OverloadServiceTest, OverlappingQueriesShedPastTheLimit) {
  const std::string path = WriteGeometricSnapshot("svc_burst.tds", 8, 0);
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

TEST(OverloadServiceTest, CacheServesHitsAndInvalidatesOnReload) {
  // Two snapshots that disagree about every query's nearest neighbor: a
  // cached body surviving the reload would be visibly wrong.
  const std::string path_a = WriteGeometricSnapshot("svc_cache_a.tds", 12, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_cache_b.tds", 12, 5);
  ServiceOptions sopts;
  sopts.cache_entries = 8;
  ServiceFixture fx(path_a, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  const std::string query =
      "{\"label\": \"q1\", \"k\": 1, \"mode\": \"exact\"}";
  auto first = client->Post("/v1/query", query);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  auto doc = util::JsonParse(first->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(ParseMatches(*doc)[0].first, "c1");  // shift 0: q1 sits on c1
  EXPECT_EQ(fx.service.cache().hits(), 0u);
  EXPECT_EQ(fx.service.cache().misses(), 1u);

  // Identical repeat: served from the cache, body byte-identical.
  auto second = client->Post("/v1/query", query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(fx.service.cache().hits(), 1u);

  // Reload swaps the snapshot and must drop the warm cache with it.
  auto reload =
      client->Post("/v1/reload", "{\"snapshot\": \"" + path_b + "\"}");
  ASSERT_TRUE(reload.ok());
  ASSERT_EQ(reload->status, 200) << reload->body;
  EXPECT_EQ(fx.service.cache().size(), 0u);

  auto third = client->Post("/v1/query", query);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third->status, 200) << third->body;
  auto doc3 = util::JsonParse(third->body);
  ASSERT_TRUE(doc3.ok());
  EXPECT_EQ(ParseMatches(*doc3)[0].first, "c6");  // shift 5: q1 sits on c6
  EXPECT_EQ(fx.service.cache().hits(), 1u);  // that was a miss, not a hit
  EXPECT_EQ(fx.service.cache().misses(), 2u);

  // And the new epoch's answer is itself cacheable.
  auto fourth = client->Post("/v1/query", query);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->body, third->body);
  EXPECT_EQ(fx.service.cache().hits(), 2u);

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto sdoc = util::JsonParse(stats->body);
  ASSERT_TRUE(sdoc.ok());
  const util::JsonValue* cache = sdoc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->Find("enabled")->bool_value());
  EXPECT_EQ(cache->Find("hits")->number_value(), 2.0);
  EXPECT_EQ(cache->Find("misses")->number_value(), 2.0);
  EXPECT_EQ(cache->Find("hit_rate")->number_value(), 0.5);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(OverloadServiceTest, StatsExposeTheNewSubsystems) {
  const std::string path = WriteGeometricSnapshot("svc_stats.tds", 16, 0);
  ServiceOptions sopts;
  sopts.max_inflight = 7;
  sopts.latency_budget_ms = 50.0;
  sopts.cache_entries = 4;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = util::JsonParse(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;

  EXPECT_EQ(doc->Find("admission")->Find("max_inflight")->number_value(),
            7.0);
  EXPECT_EQ(doc->Find("admission")->Find("shed")->number_value(), 0.0);
  const util::JsonValue* autotune = doc->Find("autotune");
  ASSERT_NE(autotune, nullptr);
  EXPECT_TRUE(autotune->Find("enabled")->bool_value());
  EXPECT_EQ(autotune->Find("budget_ms")->number_value(), 50.0);
  EXPECT_GE(autotune->Find("nprobe")->number_value(), 1.0);
  EXPECT_TRUE(doc->Find("cache")->Find("enabled")->bool_value());

  // Unlimited admission encodes as -1, not SIZE_MAX.
  ServiceOptions defaults;
  ServiceFixture unlimited(path, defaults);
  auto c2 = HttpClient::Connect("127.0.0.1", unlimited.server.port());
  ASSERT_TRUE(c2.ok());
  auto s2 = c2->Get("/v1/stats");
  ASSERT_TRUE(s2.ok());
  auto d2 = util::JsonParse(s2->body);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->Find("admission")->Find("max_inflight")->number_value(),
            -1.0);
  EXPECT_FALSE(d2->Find("autotune")->Find("enabled")->bool_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdmatch
