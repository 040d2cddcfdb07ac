// Serving overload benchmark: offered load past saturation over real
// HTTP, and a deterministic model of the admission gate.
//
// Row classes (tools/check_bench.py):
//   * qps / *_ms rows are timings — never value-compared, gated only
//     through the per-scenario wall-time aggregate;
//   * `shed_rate` rows are exact-gated: they come from a deterministic
//     replay of the real AdmissionController — a pure function of the
//     grid, so any drift is a behavior change, not noise.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/admission.h"
#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tdmatch;  // NOLINT

namespace {

double Percentile(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const size_t idx = std::min(
      ms.size() - 1, static_cast<size_t>(p * static_cast<double>(ms.size())));
  return ms[idx];
}

/// Clustered unit vectors, same construction as bench/serve_qps.
std::vector<std::vector<float>> MakeClusteredVectors(size_t n, int dim,
                                                     size_t centers,
                                                     util::Rng* rng) {
  std::vector<std::vector<float>> anchor(centers);
  for (auto& c : anchor) {
    c.resize(static_cast<size_t>(dim));
    for (auto& x : c) x = static_cast<float>(rng->Gaussian());
  }
  std::vector<std::vector<float>> out(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& c = anchor[i % centers];
    out[i].resize(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      out[i][static_cast<size_t>(d)] =
          c[static_cast<size_t>(d)] +
          0.35f * static_cast<float>(rng->Gaussian());
    }
  }
  return out;
}

serve::Snapshot MakeSnapshot(size_t n, int dim, uint64_t seed) {
  util::Rng rng(seed);
  const auto vectors = MakeClusteredVectors(n, dim, 64, &rng);
  serve::Snapshot snap;
  snap.meta.scenario = "Overload";
  snap.meta.Set("candidate_prefix", "v");
  snap.table = embed::EmbeddingTable(dim);
  for (size_t i = 0; i < n; ++i) {
    snap.table.Put("v" + std::to_string(i), vectors[i]);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Overload: offered load past saturation over real HTTP
// ---------------------------------------------------------------------------

void RunOverload(bench::BenchReporter& rep, const bench::BenchOptions& opts) {
  if (!opts.Matches("Overload")) return;
  const char* scenario = "Overload";
  size_t n = 4000;
  double seconds = 0.3;
  if (opts.scale == bench::Scale::kSmoke) {
    n = 1500;
    seconds = 0.2;
  }
  const int dim = 32;
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;

  std::string path = "serve_overload_bench.tds";
  if (const char* tmp = std::getenv("TMPDIR"); tmp != nullptr) {
    path = std::string(tmp) + "/" + path;
  } else {
    path = "/tmp/" + path;
  }
  {
    serve::Snapshot snap = MakeSnapshot(n, dim, seed);
    TDM_CHECK(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  }

  // A 1 ms debug delay per admitted query gives the server a real
  // capacity ceiling (~threads kqps) that loopback clients can actually
  // exceed, so "offered load past saturation" means something on any
  // machine; --max-inflight 8 makes the excess shed instead of queue.
  serve::http::ServiceOptions sopts;
  sopts.engine.ivf.seed = seed;
  sopts.max_inflight = 8;
  sopts.allow_debug_delay = true;
  serve::http::MatchService service(sopts);
  {
    const util::Status st = service.LoadInitial(path);
    TDM_CHECK(st.ok()) << st.ToString();
  }
  serve::http::HttpServerOptions hopts;
  hopts.threads = 16;  // accept every offered connection; admission sheds
  serve::http::HttpServer server(hopts);
  service.Register(&server);
  {
    const util::Status st = server.Start();
    TDM_CHECK(st.ok()) << st.ToString();
  }

  rep.Printf("\nOverload: max_inflight=8, 1ms simulated work, "
             "%.2fs per offered-load cell\n", seconds);
  rep.Printf("%-10s %-14s %-10s %-14s\n", "conn", "achieved_qps", "p99_ms",
             "observed_shed");
  const std::string body = "{\"label\": \"v1\", \"k\": 5, \"delay_ms\": 1}";
  for (const size_t connections : {size_t{2}, size_t{8}, size_t{24}}) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> ok_count(connections, 0);
    std::vector<uint64_t> shed_count(connections, 0);
    std::vector<std::vector<double>> lat(connections);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < connections; ++t) {
      threads.emplace_back([&, t] {
        auto client =
            serve::http::HttpClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) return;
        while (!stop.load(std::memory_order_relaxed)) {
          util::StopWatch one;
          auto r = client->Post("/v1/query", body);
          if (!r.ok()) continue;
          if (r->status == 200) {
            ++ok_count[t];
            lat[t].push_back(one.ElapsedMillis());
          } else if (r->status == 429) {
            ++shed_count[t];
          }
        }
      });
    }
    util::StopWatch watch;
    while (watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& t : threads) t.join();

    uint64_t ok = 0, sheds = 0;
    std::vector<double> all_ms;
    for (size_t t = 0; t < connections; ++t) {
      ok += ok_count[t];
      sheds += shed_count[t];
      all_ms.insert(all_ms.end(), lat[t].begin(), lat[t].end());
    }
    const double achieved = static_cast<double>(ok) / seconds;
    const double p99 = Percentile(all_ms, 0.99);
    // Machine-dependent, so informational (not exact-gated like the
    // AdmissionModel rows): the fraction of responses that were 429s.
    const double observed_shed =
        ok + sheds == 0
            ? 0.0
            : static_cast<double>(sheds) / static_cast<double>(ok + sheds);
    const std::string param = "conn=" + std::to_string(connections);
    rep.Add(scenario, param, "achieved_qps", achieved, seconds);
    rep.Add(scenario, param, "p99_ms", p99, 0.0);
    rep.Add(scenario, param, "observed_shed", observed_shed, 0.0);
    rep.Printf("%-10zu %-14.0f %-10.3f %-14.3f\n", connections, achieved,
               p99, observed_shed);
  }
  server.Stop();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AdmissionModel: deterministic, exact-gated rates
// ---------------------------------------------------------------------------

void RunAdmissionModel(bench::BenchReporter& rep,
                       const bench::BenchOptions& opts) {
  if (!opts.Matches("AdmissionModel")) return;
  const char* scenario = "AdmissionModel";
  rep.Printf("\nAdmission model (deterministic burst replay):\n");
  rep.Printf("%-18s %-10s\n", "config", "shed_rate");
  struct Grid { size_t capacity, burst; };
  for (const Grid g : {Grid{2, 4}, Grid{4, 4}, Grid{4, 8}, Grid{8, 32}}) {
    serve::AdmissionController gate(
        serve::AdmissionOptions{g.capacity, 1, 30});
    const size_t rounds = 1000;
    util::StopWatch watch;
    for (size_t round = 0; round < rounds; ++round) {
      // A burst of overlapping arrivals: every request is in flight until
      // the whole burst has been answered — the worst case the in-flight
      // budget exists for.
      std::vector<serve::AdmissionController::Ticket> tickets;
      tickets.reserve(g.burst);
      for (size_t i = 0; i < g.burst; ++i) tickets.emplace_back(&gate);
      TDM_CHECK(gate.RetryAfterSeconds(5.0) >= 1);
      TDM_CHECK(gate.RetryAfterSeconds(5.0) <= 30);
    }
    const uint64_t total = gate.admitted() + gate.shed();
    const double shed_rate =
        static_cast<double>(gate.shed()) / static_cast<double>(total);
    const std::string param = "cap=" + std::to_string(g.capacity) +
                              ",burst=" + std::to_string(g.burst);
    rep.Add(scenario, param, "shed_rate", shed_rate, watch.ElapsedSeconds());
    rep.Printf("%-18s %-10.4f\n", param.c_str(), shed_rate);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseArgsOrExit(argc, argv);
  bench::BenchReporter rep("serve_overload", opts);
  rep.Note("Serving overload: offered load past saturation, "
           "deterministic admission model");
  RunOverload(rep, opts);
  RunAdmissionModel(rep, opts);
  return rep.Finish() ? 0 : 1;
}
