// tdbench: the repository's end-to-end benchmark.
//
//   tdbench --workload <build_imdb|serve_ivf|serve_exact_batch> --seed N
//           --seconds S --trace <0|1> --serve-bin PATH --work-dir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes a separate
// traced run that reports per-layer metrics. The last line of stdout is
// the JSON result; the lines before it list the operations attempted and
// failed per kind. tdbench/run.py builds this binary and calls it.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "pipeline.h"
#include "serve/http/client.h"
#include "serve/http/http.h"
#include "serve/http/service.h"
#include "serve/index.h"
#include "serve/query_engine.h"
#include "serving.h"
#include "synthetic.h"
#include "util/obs/metrics.h"
#include "util/rng.h"

namespace tdbench {
namespace {

namespace serve = tdmatch::serve;
namespace http = tdmatch::serve::http;

/// build_imdb trains on fewer workers than the 4 cores the benchmark was
/// tuned on; the determinism check rebuilds on another count.
constexpr size_t kBuildThreads = 2;
constexpr size_t kCheckThreads = 3;
/// The serving index build uses tdmatch_serve's default engine threads.
constexpr size_t kServeThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Timed builds per run: of the IMDb snapshot (about 7 s each on 2
/// threads), and of the serving snapshot (about 1.3 s each).
constexpr int kImdbBuilds = 3;
constexpr int kServeBuilds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
};

using Metrics = std::map<std::string, Metric>;

/// Traffic of each workload, with phase lengths as shares of --seconds.
TrafficSpec TrafficFor(const std::string& workload, double seconds) {
  TrafficSpec t;
  if (workload == "build_imdb") {
    t.closed_seconds = 0.25 * seconds;
    t.open_seconds = 0.4 * seconds;
    t.open_rate = 2000;
    t.reload_seconds = 0.2 * seconds;
    t.reload_every_s = 0.25;
  } else if (workload == "serve_ivf") {
    t.closed_seconds = 0.4 * seconds;
    t.open_seconds = 0.6 * seconds;
    t.open_rate = 2000;
    t.reload_every_s = 2.0;
  } else {  // serve_exact_batch
    t.batch = true;
    t.closed_seconds = 0.75 * seconds;
    t.reload_seconds = 0.25 * seconds;
    t.reload_every_s = 0.5;
  }
  return t;
}

/// Resident set of this process, in MB (from /proc/self/statm).
double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// The written snapshot must re-open (mmap view, CRC-checked) with exactly
/// the vectors that were handed to the writer.
std::shared_ptr<const serve::SnapshotView> CheckReopen(
    const std::string& path, const tdmatch::embed::EmbeddingTable& exported,
    RunLedger* ledger) {
  auto view = serve::SnapshotView::Open(path);
  if (!view.ok()) {
    ledger->CheckFailed("snapshot does not re-open: " + view.status().ToString());
    return nullptr;
  }
  const serve::SnapshotView& v = **view;
  ledger->Check(v.size() == exported.size(), "snapshot holds another vector count");
  std::vector<float> row(static_cast<size_t>(v.dim()));
  size_t mismatched = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const std::vector<float>* want = exported.Get(std::string(v.label(i)));
    v.CopyRow(i, row.data());
    if (want == nullptr || want->size() != row.size() ||
        std::memcmp(want->data(), row.data(), row.size() * sizeof(float)) != 0) {
      ++mismatched;
    }
  }
  ledger->Check(mismatched == 0, "snapshot vectors differ from the exported ones");
  return *view;
}

double CosineD(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

/// AP@5 of one ranking against a gold set.
double AveragePrecisionAt5(const std::vector<int32_t>& ranking,
                           const std::vector<int32_t>& gold) {
  double sum = 0;
  size_t hits = 0;
  for (size_t r = 0; r < std::min<size_t>(5, ranking.size()); ++r) {
    if (std::find(gold.begin(), gold.end(), ranking[r]) != gold.end()) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(r + 1);
    }
  }
  return sum / static_cast<double>(std::min<size_t>(gold.size(), 5));
}

/// Expected AP@5 of a uniformly random ranking of n candidates with g gold
/// ones: E[rel(r) * hits(r)] = g/n * (1 + (r-1)(g-1)/(n-1)).
double RandomAveragePrecisionAt5(size_t n, size_t g) {
  double sum = 0;
  for (size_t r = 1; r <= std::min<size_t>(5, n); ++r) {
    const double dn = static_cast<double>(n), dg = static_cast<double>(g);
    sum += dg / dn * (1 + (static_cast<double>(r) - 1) * (dg - 1) / std::max(1.0, dn - 1)) /
           static_cast<double>(r);
  }
  return sum / static_cast<double>(std::min<size_t>(g, 5));
}

/// The benchmark's own cosine ranking of the exported IMDb vectors: it
/// must agree with TDmatchResult::scores, and its MAP@5 against the
/// generator's gold must sit well above a random ranking's.
double CheckImdbRanking(const tdmatch::datagen::GeneratedScenario& data,
                        const BuildOutput& out, RunLedger* ledger) {
  const auto& gold = data.scenario.gold;
  const size_t nq = data.scenario.first.NumDocs();
  const size_t nc = data.scenario.second.NumDocs();
  ledger->Check(out.scores.size() == nq, "scores cover another query count");
  double ap = 0, random_ap = 0;
  size_t scored = 0, disagreements = 0;
  for (size_t q = 0; q < std::min(nq, out.scores.size()); ++q) {
    const std::vector<float>* vq = out.exported.Get(DocLabel(0, q));
    std::vector<std::pair<double, int32_t>> ranked;
    for (size_t c = 0; c < nc; ++c) {
      const std::vector<float>* vc = out.exported.Get(DocLabel(1, c));
      const double cos = vq != nullptr && vc != nullptr ? CosineD(*vq, *vc) : 0.0;
      if (out.scores[q].size() != nc || std::fabs(cos - out.scores[q][c]) > 1e-9) {
        ++disagreements;
      }
      ranked.emplace_back(-cos, static_cast<int32_t>(c));
    }
    if (q >= gold.size() || gold[q].empty()) continue;
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(std::min<size_t>(5, nc)),
                      ranked.end());
    std::vector<int32_t> top;
    for (size_t r = 0; r < std::min<size_t>(5, nc); ++r) top.push_back(ranked[r].second);
    ap += AveragePrecisionAt5(top, gold[q]);
    random_ap += RandomAveragePrecisionAt5(nc, gold[q].size());
    ++scored;
  }
  ledger->Check(disagreements == 0, "benchmark cosine disagrees with TDmatchResult::scores (" +
                                        std::to_string(disagreements) + " pairs)");
  const double map = scored == 0 ? 0 : ap / static_cast<double>(scored);
  const double random_map = scored == 0 ? 0 : random_ap / static_cast<double>(scored);
  std::printf("map@5: %.4f over %zu queries (a random ranking scores %.4f)\n", map, scored,
              random_map);
  ledger->Check(map >= 5 * random_map && map >= random_map + 0.25,
                "map@5 is not well above a random ranking");
  return map;
}

/// Starts `kSetups` servers one after another; setup_s is the median time
/// to the first 200. The last one stays up and is returned.
std::unique_ptr<ServerProcess> StartServers(const Args& args, const std::string& snapshot,
                                            int setups, std::vector<double>* setup_s,
                                            RunLedger* ledger) {
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < setups; ++i) {
    if (server != nullptr) {
      server->Stop(nullptr);
    }
    server = std::make_unique<ServerProcess>();
    double s = 0;
    ledger->Attempt("setup");
    if (!server->Start(args.serve_bin, snapshot, args.work_dir + "/server.log", &s)) {
      ledger->Fail("setup", "server start");
      return nullptr;
    }
    setup_s->push_back(s);
  }
  return server;
}

/// Serves `snapshot` with the workload's traffic; fills the serving metrics.
ServeFigures ServeAndMeasure(const Args& args, const std::string& snapshot,
                             const Truth& truth, int setups, std::vector<double>* setup_s,
                             Metrics* m, RunLedger* ledger) {
  ServeFigures fig;
  std::unique_ptr<ServerProcess> server =
      StartServers(args, snapshot, setups, setup_s, ledger);
  if (server == nullptr) return fig;
  fig = RunTraffic(server->port(), truth, TrafficFor(args.workload, args.seconds),
                   args.seed, ledger);
  double peak_mb = 0;
  server->Stop(&peak_mb);
  (*m)["qps"] = {fig.qps, "1/s"};
  (*m)["p50_ms"] = {fig.p50_ms, "ms"};
  // Figures that each run prints but that stay out of the result: between
  // runs on a shared 4-vCPU host they spread far beyond any usable bound
  // (see README).
  std::printf("info reload_ms=%.6f\n", fig.reload_ms);
  if (fig.open_p50_ms > 0) {
    std::printf("info open_p50_ms=%.6f\ninfo open_p99_ms=%.6f\n", fig.open_p50_ms,
                fig.open_p99_ms);
  }
  (*m)["recall_at_5"] = {fig.recall_at_5, "score"};
  if (m->count("peak_rss_mb") == 0) (*m)["peak_rss_mb"] = {peak_mb, "MB"};
  return fig;
}

int RunBuildImdb(const Args& args, Metrics* m, RunLedger* ledger) {
  const auto data = MakeImdbInputs(args.seed);

  // Set-up: the "pre-trained" lexicon and its γ, trained kSetups times.
  std::vector<double> setup_s;
  LexiconSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    ledger->Attempt("setup");
    const double t0 = NowSeconds();
    auto s = TrainLexicon(data, kBuildThreads);
    setup_s.push_back(NowSeconds() - t0);
    if (!s.ok()) {
      ledger->Fail("setup", s.status().ToString());
      return 1;
    }
    if (i > 0) ledger->Check(s->gamma == setup.gamma, "lexicon training is not deterministic");
    setup = std::move(*s);
  }

  // One build on another thread count, in a child process that inherits
  // the inputs and the lexicon: its bytes must match the timed builds', and
  // its peak RSS over the RSS it inherited is the build's memory, with the
  // generated inputs excluded.
  const std::string check_path = args.work_dir + "/imdb-threads.tds";
  ledger->Attempt("build");
  const double rss_at_fork = CurrentRssMb();
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    auto out = BuildImdbSnapshot(data, setup, kCheckThreads, check_path);
    _exit(out.ok() ? 0 : 1);
  }
  int status = 0;
  rusage ru{};
  if (pid < 0 || wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    ledger->Fail("build", "build at another thread count");
  } else {
    (*m)["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0 - rss_at_fork, "MB"};
  }

  // The timed builds.
  const std::string path = args.work_dir + "/imdb.tds";
  std::vector<double> build_s, build_cpu_s;
  std::string first_bytes;
  BuildOutput last;
  for (int b = 0; b < kImdbBuilds; ++b) {
    ledger->Attempt("build");
    const double t0 = NowSeconds(), c0 = ProcessCpuSeconds();
    auto out = BuildImdbSnapshot(data, setup, kBuildThreads, path);
    build_s.push_back(NowSeconds() - t0);
    build_cpu_s.push_back(ProcessCpuSeconds() - c0);
    if (!out.ok()) {
      ledger->Fail("build", out.status().ToString());
      return 1;
    }
    if (first_bytes.empty()) first_bytes = out->snapshot_bytes;
    ledger->Check(out->snapshot_bytes == first_bytes, "repeated builds wrote different snapshots");
    last = std::move(*out);
  }

  ledger->Check(ReadFileBytes(check_path) == first_bytes,
                "a build on another thread count wrote a different snapshot");
  auto view = CheckReopen(path, last.exported, ledger);
  const double map = CheckImdbRanking(data, last, ledger);
  if (view == nullptr) return 1;
  const Truth truth(*view);
  std::printf("build_imdb: %zu builds, median %.3f s wall, %.3f s cpu; snapshot %zu bytes\n",
              build_s.size(), Median(build_s), Median(build_cpu_s), first_bytes.size());

  std::vector<double> serve_setup_s;
  ServeAndMeasure(args, path, truth, 1, &serve_setup_s, m, ledger);
  (*m)["setup_s"] = {Median(setup_s), "s"};
  (*m)["build_s"] = {Median(build_s), "s"};
  (*m)["build_cpu_s"] = {Median(build_cpu_s), "s"};
  (*m)["map_at_5"] = {map, "score"};
  return 0;
}

/// The planted-gold MAP@5 of the verification sample's brute-force
/// rankings (the benchmark's own ranking of the snapshot's vectors).
double SyntheticMap(const SyntheticInputs& in, const Truth& truth, const ServeFigures& fig,
                    RunLedger* ledger) {
  double ap = 0;
  for (size_t i = 0; i < fig.sample.size(); ++i) {
    const size_t q = static_cast<size_t>(fig.sample[i]);
    ap += AveragePrecisionAt5(fig.sample_top5[i], {in.gold[q]});
  }
  const double map = fig.sample.empty() ? 0 : ap / static_cast<double>(fig.sample.size());
  const double random_map = RandomAveragePrecisionAt5(truth.num_candidates(), 1);
  std::printf("map@5: %.4f over %zu sampled queries (a random ranking scores %.6f)\n", map,
              fig.sample.size(), random_map);
  ledger->Check(map >= 5 * random_map && map >= random_map + 0.25,
                "map@5 is not well above a random ranking");
  return map;
}

int RunServe(const Args& args, Metrics* m, RunLedger* ledger) {
  const SyntheticSpec spec;
  const SyntheticInputs in = MakeSyntheticInputs(spec, args.seed);

  // Builds of the serving snapshot: index (k-means) + section + write.
  const std::string path = args.work_dir + "/synthetic.tds";
  std::vector<double> build_s, build_cpu_s;
  std::string first_bytes;
  for (int b = 0; b <= kServeBuilds; ++b) {
    // The last build runs on another thread count and is not timed.
    const bool check = b == kServeBuilds;
    const std::string out_path = check ? args.work_dir + "/synthetic-threads.tds" : path;
    serve::Snapshot copy = in.snapshot;
    ledger->Attempt("build");
    const double t0 = NowSeconds(), c0 = ProcessCpuSeconds();
    auto st = WriteServingSnapshot(std::move(copy), check ? 2 : kServeThreads, out_path,
                                   nullptr);
    if (!check) {
      build_s.push_back(NowSeconds() - t0);
      build_cpu_s.push_back(ProcessCpuSeconds() - c0);
    }
    if (!st.ok()) {
      ledger->Fail("build", st.ToString());
      return 1;
    }
    const std::string bytes = ReadFileBytes(out_path);
    if (first_bytes.empty()) first_bytes = bytes;
    ledger->Check(bytes == first_bytes, check ? "a build on another thread count wrote a different snapshot"
                                              : "repeated builds wrote different snapshots");
  }
  auto view = CheckReopen(path, in.snapshot.table, ledger);
  if (view == nullptr) return 1;
  const Truth truth(*view);
  for (size_t j = 0; j < truth.num_queries(); ++j) {
    ledger->Check(truth.query_label(j) == DocLabel(0, j), "snapshot reordered the queries");
  }
  std::printf("%s: snapshot of %zu candidates + %zu queries, dim %d, %zu clusters, %zu bytes; "
              "build median %.3f s\n",
              args.workload.c_str(), truth.num_candidates(), truth.num_queries(), spec.dim,
              spec.clusters, first_bytes.size(), Median(build_s));

  std::vector<double> setup_s;
  const ServeFigures fig = ServeAndMeasure(args, path, truth, kSetups, &setup_s, m, ledger);
  (*m)["setup_s"] = {Median(setup_s), "s"};
  (*m)["build_s"] = {Median(build_s), "s"};
  (*m)["build_cpu_s"] = {Median(build_cpu_s), "s"};
  (*m)["map_at_5"] = {SyntheticMap(in, truth, fig, ledger), "score"};
  return 0;
}

// --- the traced run ----------------------------------------------------------

/// Median self time of the spans named `name`, scaled (1 = seconds).
void AddSpanMetric(const Tracer& tracer, const std::string& name, const std::string& metric,
                   double scale, const std::string& unit, Metrics* m) {
  (*m)[metric] = {Median(tracer.SelfSecondsOf(name)) * scale, unit};
}

/// Per-layer serving spans over `snapshot`: open, engine build, the index
/// searches, engine queries, and the HTTP stages with the workload's
/// request shape.
void TraceServing(const Args& args, const std::string& snapshot, bool batch, Tracer* tracer,
                  Metrics* m, RunLedger* ledger) {
  std::shared_ptr<const serve::SnapshotView> view;
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope span(tracer, "serve.snapshot_open");
    auto v = serve::SnapshotView::Open(snapshot);
    span.Close();
    ledger->Attempt("trace");
    if (!v.ok()) {
      ledger->Fail("trace", v.status().ToString());
      return;
    }
    view = *v;
  }
  const Truth truth(*view);
  serve::QueryEngineOptions eopts;  // tdmatch_serve's defaults
  std::unique_ptr<serve::QueryEngine> engine;
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope span(tracer, "serve.engine_build");
    auto e = serve::QueryEngine::BuildFromView(view, kCandidatePrefix, eopts);
    span.Close();
    ledger->Attempt("trace");
    if (!e.ok()) {
      ledger->Fail("trace", e.status().ToString());
      return;
    }
    engine = std::make_unique<serve::QueryEngine>(std::move(*e));
  }
  ledger->Check(engine->has_ivf(), "serving engine has no IVF index");

  std::vector<int> sample;
  tdmatch::util::Rng rng(args.seed ^ 0x7ace);
  for (size_t i = 0; i < 200; ++i) {
    sample.push_back(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(truth.num_queries()))));
  }
  const int dim = view->dim();
  std::vector<float> q(static_cast<size_t>(dim));
  for (int idx : sample) {
    const int64_t row = view->FindRow(truth.query_label(static_cast<size_t>(idx)));
    view->CopyRow(static_cast<size_t>(row), q.data());
    serve::NormalizeSlice(q.data(), dim);
    {
      Tracer::Scope span(tracer, "serve.ivf_search");
      engine->ivf_index()->Search(q.data(), 5);
    }
    {
      Tracer::Scope span(tracer, "serve.exact_search");
      engine->exact_index().Search(q.data(), 5);
    }
    Tracer::Scope span(tracer, "serve.query");
    auto r = engine->Query(truth.query_label(static_cast<size_t>(idx)), 5);
    span.Close();
    ledger->Attempt("trace");
    if (!r.ok()) ledger->Fail("trace", r.status().ToString());
  }
  for (size_t start = 0; start + 16 <= 50 * 16; start += 16) {
    std::vector<std::string> labels;
    for (size_t i = 0; i < 16; ++i) {
      labels.push_back(truth.query_label(static_cast<size_t>(sample[(start + i) % sample.size()])));
    }
    Tracer::Scope span(tracer, "serve.batch16");
    engine->QueryBatch(labels, 5, serve::SearchMode::kExact);
  }

  // HTTP stages, in process: parse, handle, serialize.
  http::ServiceOptions sopts;
  sopts.registry = &tdmatch::util::obs::Registry::Global();
  http::MatchService service(sopts);
  ledger->Attempt("trace");
  if (auto st = service.LoadInitial(snapshot); !st.ok()) {
    ledger->Fail("trace", st.ToString());
    return;
  }
  auto body_for = [&](size_t i) {
    std::vector<int> qs;
    for (size_t j = 0; j < (batch ? 16u : 1u); ++j) qs.push_back(sample[(i + j) % sample.size()]);
    return QueryBody(truth, qs, batch);
  };
  const size_t calls = batch ? 50 : 200;
  for (size_t i = 0; i < calls; ++i) {
    const std::string wire = http::SerializeRequest("POST", "/v1/query", "127.0.0.1", body_for(i),
                                                    "application/json", true);
    http::HttpParser parser(http::HttpParser::Mode::kRequest);
    Tracer::Scope parse(tracer, "http.parse");
    auto st = parser.Feed(wire);
    parse.Close();
    ledger->Attempt("trace");
    if (!st.ok() || !parser.Done()) {
      ledger->Fail("trace", "request did not parse");
      continue;
    }
    Tracer::Scope handle(tracer, "http.handle_query");
    http::HttpResponse response = service.HandleQuery(parser.request());
    handle.Close();
    if (response.status != 200) ledger->Fail("trace", "HandleQuery " + response.body);
    Tracer::Scope serialize(tracer, "http.serialize");
    const std::string out = http::SerializeResponse(response, true);
    serialize.Close();
    ledger->Check(!out.empty(), "empty serialized response");
  }

  // Round trips to a tdmatch_serve process.
  ServerProcess server;
  double setup_s = 0;
  ledger->Attempt("setup");
  if (!server.Start(args.serve_bin, snapshot, args.work_dir + "/server.log", &setup_s)) {
    ledger->Fail("setup", "server start");
    return;
  }
  auto client = http::HttpClient::Connect("127.0.0.1", server.port());
  for (size_t i = 0; client.ok() && i < calls; ++i) {
    const std::string body = body_for(i);
    Tracer::Scope span(tracer, "http.round_trip");
    auto r = client->Post("/v1/query", body);
    span.Close();
    ledger->Attempt("trace");
    if (!r.ok() || r->status != 200) ledger->Fail("trace", "round trip");
  }
  server.Stop(nullptr);

  AddSpanMetric(*tracer, "serve.snapshot_open", "serve.snapshot_open_ms", 1e3, "ms", m);
  AddSpanMetric(*tracer, "serve.engine_build", "serve.engine_build_ms", 1e3, "ms", m);
  AddSpanMetric(*tracer, "serve.ivf_search", "serve.ivf_search_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "serve.exact_search", "serve.exact_search_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "serve.query", "serve.query_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "serve.batch16", "serve.batch16_ms", 1e3, "ms", m);
  AddSpanMetric(*tracer, "http.parse", "http.parse_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "http.handle_query", "http.handle_query_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "http.serialize", "http.serialize_us", 1e6, "us", m);
  AddSpanMetric(*tracer, "http.round_trip", "http.round_trip_us", 1e6, "us", m);
}

/// The traced run: build_imdb's build layer by layer (its snapshot must
/// be byte-identical to an untraced build), the workload's own snapshot
/// build, and the serving layers over that snapshot.
int RunTraced(const Args& args, Metrics* m, RunLedger* ledger) {
  Tracer tracer;
  std::map<std::string, double> counts;
  const auto data = MakeImdbInputs(args.seed);
  LexiconSetup setup;
  {
    Tracer::Scope span(&tracer, "embed.lexicon_train");
    auto s = TrainLexicon(data, kBuildThreads);
    ledger->Attempt("setup");
    if (!s.ok()) {
      ledger->Fail("setup", s.status().ToString());
      return 1;
    }
    setup = std::move(*s);
  }
  const std::string untraced_path = args.work_dir + "/imdb.tds";
  const std::string traced_path = args.work_dir + "/imdb-traced.tds";
  ledger->Attempt("build", 2);
  const double t0 = NowSeconds();
  auto untraced = BuildImdbSnapshot(data, setup, kBuildThreads, untraced_path);
  const double untraced_s = NowSeconds() - t0;
  auto traced = BuildImdbSnapshotTraced(data, setup, kBuildThreads, traced_path, &tracer,
                                        &counts);
  if (!untraced.ok() || !traced.ok()) {
    ledger->Fail("build", !untraced.ok() ? untraced.status().ToString()
                                         : traced.status().ToString());
    return 1;
  }
  ledger->Check(traced->snapshot_bytes == untraced->snapshot_bytes,
                "the traced build wrote another snapshot than TDmatch::Run's");
  double traced_s = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == "build") traced_s = s.end - s.start;
  }
  std::printf("imdb build: untraced %.3f s, traced %.3f s\n", untraced_s, traced_s);

  AddSpanMetric(tracer, "embed.lexicon_train", "embed.lexicon_train_s", 1, "s", m);
  AddSpanMetric(tracer, "embed.merge_map", "embed.merge_map_s", 1, "s", m);
  AddSpanMetric(tracer, "graph.build", "graph.build_s", 1, "s", m);
  AddSpanMetric(tracer, "graph.expand", "graph.expand_s", 1, "s", m);
  AddSpanMetric(tracer, "graph.compress", "graph.compress_s", 1, "s", m);
  AddSpanMetric(tracer, "embed.walks", "embed.walks_s", 1, "s", m);
  AddSpanMetric(tracer, "embed.train", "embed.train_s", 1, "s", m);
  AddSpanMetric(tracer, "match.score", "match.score_s", 1, "s", m);
  for (const char* c : {"graph.nodes", "graph.edges", "graph.expanded_nodes",
                        "graph.compressed_nodes", "graph.compressed_edges", "embed.walk_tokens"}) {
    (*m)[c] = {counts[c], "count"};
  }
  const double train_s = (*m)["embed.train_s"].value;
  (*m)["embed.train_cpu_s"] = {counts["embed.train_cpu_s"], "s"};
  (*m)["embed.train_tokens_per_s"] = {
      counts["embed.walk_tokens"] * counts["embed.train_epochs"] / train_s, "1/s"};
  (*m)["embed.train_parallel_eff"] = {
      counts["embed.train_cpu_s"] / (train_s * static_cast<double>(kBuildThreads)), "ratio"};

  // The workload's own serving snapshot and its build spans.
  std::string snapshot = traced_path;
  Tracer serve_tracer;
  if (args.workload == "build_imdb") {
    AddSpanMetric(tracer, "serve.index_build", "serve.index_build_s", 1, "s", m);
    AddSpanMetric(tracer, "serve.snapshot_write", "serve.snapshot_write_s", 1, "s", m);
    (*m)["serve.snapshot_bytes"] = {static_cast<double>(traced->snapshot_bytes.size()), "bytes"};
  } else {
    const SyntheticInputs in = MakeSyntheticInputs(SyntheticSpec{}, args.seed);
    snapshot = args.work_dir + "/synthetic.tds";
    ledger->Attempt("build");
    auto st = WriteServingSnapshot(in.snapshot, kServeThreads, snapshot, &serve_tracer);
    if (!st.ok()) {
      ledger->Fail("build", st.ToString());
      return 1;
    }
    AddSpanMetric(serve_tracer, "serve.index_build", "serve.index_build_s", 1, "s", m);
    AddSpanMetric(serve_tracer, "serve.snapshot_write", "serve.snapshot_write_s", 1, "s", m);
    (*m)["serve.snapshot_bytes"] = {static_cast<double>(ReadFileBytes(snapshot).size()), "bytes"};
  }
  TraceServing(args, snapshot, args.workload == "serve_exact_batch", &serve_tracer, m, ledger);

  ledger->Check(tracer.Write(args.work_dir + "/trace-build.jsonl") &&
                    serve_tracer.Write(args.work_dir + "/trace-serve.jsonl"),
                "cannot write the trace files");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tdbench --workload <build_imdb|serve_ivf|serve_exact_batch> --seed N "
               "--seconds S --trace <0|1> --serve-bin PATH --work-dir DIR\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds >= 5 && args->seconds <= 120)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--serve-bin") {
      args->serve_bin = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->serve_bin.empty() && !args->work_dir.empty() &&
         (args->workload == "build_imdb" || args->workload == "serve_ivf" ||
          args->workload == "serve_exact_batch");
}

}  // namespace
}  // namespace tdbench

int main(int argc, char** argv) {
  using namespace tdbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  mkdir(args.work_dir.c_str(), 0755);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  RunLedger ledger;
  Metrics metrics;
  int rc = 0;
  if (args.trace) {
    rc = RunTraced(args, &metrics, &ledger);
  } else if (args.workload == "build_imdb") {
    rc = RunBuildImdb(args, &metrics, &ledger);
  } else {
    rc = RunServe(args, &metrics, &ledger);
  }
  ledger.PrintSummary();
  if (rc != 0 || ledger.failed() > 0) {
    // Failed operations leave the figures incomplete: report no result.
    std::fprintf(stderr, "tdbench: run failed\n");
    return 1;
  }
  for (const auto& [name, metric] : metrics) {
    ledger.Check(std::isfinite(metric.value) && metric.value > 0,
                 "metric " + name + " is not a positive finite number");
  }
  PrintResult(ledger, metrics);
  return ledger.correct() ? 0 : 1;
}
