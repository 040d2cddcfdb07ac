// tdmatch_serve: the online serving entry point.
//
// The offline pipeline (core::TDmatch) trains once and `build-snapshot`
// persists the document embeddings as a binary snapshot; `query` / `batch`
// load that snapshot in a fresh process and answer top-k match queries
// through serve::QueryEngine (IVF ANN with exact re-rank, or brute force
// with --exact). `info` inspects a snapshot, `convert` bridges the text
// vector format.
//
//   tdmatch_serve build-snapshot --scenario IMDb --out model.tds
//                 [--scale smoke|sweep|full] [--seed N]
//   tdmatch_serve info     --snapshot model.tds
//   tdmatch_serve query    --snapshot model.tds [--k N] [--nprobe N]
//                 [--exact] [--threads N]          # REPL over stdin
//   tdmatch_serve batch    --snapshot model.tds --queries q.txt|q.jsonl
//                 [--field query] [--k N] [--nprobe N] [--exact]
//                 [--threads N]
//   tdmatch_serve convert  --in vectors.txt --out model.tds  (or reverse;
//                 direction is sniffed from the input file's magic)
//   tdmatch_serve serve    --snapshot model.tds [--port N] [--bind ADDR]
//                 [--threads N] [--http-threads N] [--k N] [--nprobe N]
//                 [--exact] [--no-reload]
//                 [--trace-sample F] [--slow-query-ms X] [--log-level L]
//                          # HTTP front end over the mmap'ed snapshot:
//                          # POST /v1/query, GET /v1/healthz, GET
//                          # /v1/metrics (Prometheus), POST /v1/reload;
//                          # SIGTERM/SIGINT drain and exit 0
//
// Query labels are the snapshot's embedding labels (the graph's metadata
// doc labels). The REPL, batch mode, and the HTTP API accept the
// shorthands `q:<i>` and `c:<i>` for query/candidate doc i of the trained
// scenario (serve::ResolveLabel: a digits-only index; the CLI trims each
// input line first).

#include <csignal>
#include <cstring>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corpus/loader.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/obs/jsonlog.h"
#include "util/obs/metrics.h"
#include "util/result.h"
#include "util/simd/kernels.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tdmatch {
namespace {

constexpr char kCandidatePrefix[] = "__D1:";
constexpr char kQueryPrefix[] = "__D0:";

struct ServeArgs {
  std::string mode;
  std::string scenario = "IMDb";
  std::string out_path;
  std::string in_path;
  std::string snapshot_path;
  std::string queries_path;
  std::string field = "query";
  bench::Scale scale = bench::Scale::kSmoke;
  uint64_t seed = 0;
  size_t k = 5;
  size_t nprobe = 4;
  size_t pq_m = 0;
  size_t threads = 4;
  bool exact = false;
  // serve mode
  std::string bind = "127.0.0.1";
  size_t port = 8080;
  size_t http_threads = 4;
  bool no_reload = false;
  /// SIZE_MAX = no admission limit; 0 is valid and sheds every query.
  size_t max_inflight = std::numeric_limits<size_t>::max();
  /// Latency SLO threshold (ms); 0 turns the latency objective off.
  double latency_budget_ms = 0.0;
  bool allow_delay = false;
  /// Fraction of queries traced with per-stage spans (0 = off, 1 = all).
  double trace_sample = 0.0;
  /// Trace + JSONL-log any query slower than this (ms); 0 disables.
  double slow_query_ms = 0.0;
  /// Minimum JSONL log level: debug|info|warn|error.
  std::string log_level = "info";
  /// JSONL log file (empty = stderr) with size-based keep-one rotation.
  std::string log_file;
  size_t log_max_bytes = 64 * 1024 * 1024;
  /// Metric-history sampling cadence (ms; 0 disables) and ring size.
  double history_interval_ms = 1000.0;
  size_t history_points = 600;
  /// SLO availability/latency target (the latency objective activates
  /// with --latency-budget-ms) and burn-rate window tuning: the short
  /// fast/slow windows in seconds; long windows are 10x the short ones.
  double slo_target = 0.999;
  double slo_fast_window_s = 60.0;
  double slo_slow_window_s = 300.0;
  double slo_fast_burn = 14.4;
  double slo_slow_burn = 6.0;
  /// Disable GET /v1/debug/profile.
  bool no_profile = false;
  size_t profile_hz = 99;
};

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <mode> [flags]\n"
      "modes:\n"
      "  build-snapshot --scenario <IMDb|Corona|Audit|Politifact|Snopes>\n"
      "                 --out <model.tds> [--scale smoke|sweep|full]\n"
      "                 [--seed N] [--pq-m N]   (embeds a trained index\n"
      "                 section; --pq-m turns on product quantization)\n"
      "  info           --snapshot <model.tds>\n"
      "  isa            (print the SIMD dispatch decision and exit)\n"
      "  query          --snapshot <model.tds> [--k N] [--nprobe N]\n"
      "                 [--exact] [--threads N]\n"
      "  batch          --snapshot <model.tds> --queries <file.txt|.jsonl>\n"
      "                 [--field <name>] [--k N] [--nprobe N] [--exact]\n"
      "                 [--threads N]\n"
      "  convert        --in <file> --out <file>   (text <-> snapshot)\n"
      "  serve          --snapshot <model.tds> [--port N] [--bind ADDR]\n"
      "                 [--threads N] [--http-threads N] [--k N]\n"
      "                 [--nprobe N] [--exact] [--no-reload]\n"
      "                 [--max-inflight N]\n"
      "                 [--latency-budget-ms X] [--allow-delay]\n"
      "                 [--trace-sample F] [--slow-query-ms X]\n"
      "                 [--log-level debug|info|warn|error]\n"
      "                 [--log-file PATH] [--log-max-bytes N]\n"
      "                 [--history-interval-ms N] [--history-points N]\n"
      "                 [--slo-target F] [--slo-fast-window-s S]\n"
      "                 [--slo-slow-window-s S] [--slo-fast-burn X]\n"
      "                 [--slo-slow-burn X] [--no-profile]\n"
      "                 [--profile-hz N]\n"
      "                 (--max-inflight: shed 429 + Retry-After past N\n"
      "                  in-flight queries (0 sheds all); --latency-budget-ms:\n"
      "                  the latency SLO threshold (0 = no latency\n"
      "                  objective); --allow-delay: honor the\n"
      "                  debug 'delay_ms' query field; --trace-sample:\n"
      "                  fraction of queries traced with per-stage spans;\n"
      "                  --slow-query-ms: JSONL-log queries slower than X;\n"
      "                  --log-file: JSONL log to PATH, rotated keep-one\n"
      "                  past --log-max-bytes; --history-interval-ms:\n"
      "                  metric-history sampling for GET\n"
      "                  /v1/metrics/history (0 disables); --slo-*: burn-\n"
      "                  rate windows/thresholds for GET /v1/slo and the\n"
      "                  degraded healthz state; metrics at GET\n"
      "                  /v1/metrics; CPU profile at GET /v1/debug/profile)\n",
      prog);
  return 2;
}

bool ParseSize(const std::string& s, size_t* out) {
  double d = 0;
  // The range check must precede the cast: converting a double outside
  // size_t's range (1e30, inf) is undefined behavior. 2^53 bounds the
  // exactly-representable integers, far beyond any flag this tool takes.
  if (!util::ParseDouble(s, &d) || d < 0 || d > 9007199254740992.0 ||
      d != static_cast<double>(static_cast<size_t>(d))) {
    return false;
  }
  *out = static_cast<size_t>(d);
  return true;
}

/// A trimmed input line with the `q:<i>` / `c:<i>` shorthand resolved.
std::string ResolveInput(const std::string& raw,
                         const serve::SnapshotMeta& meta) {
  return serve::ResolveLabel(std::string(util::Trim(raw)), meta);
}

void PrintMatches(const std::string& query,
                  const util::Result<std::vector<serve::ScoredMatch>>& r) {
  if (!r.ok()) {
    std::printf("%s\tERROR\t%s\n", query.c_str(),
                r.status().ToString().c_str());
    return;
  }
  size_t rank = 1;
  for (const auto& m : *r) {
    std::printf("%s\t%zu\t%s\t%.6f\n", query.c_str(), rank++,
                m.label.c_str(), m.score);
  }
}

int RunBuildSnapshot(const ServeArgs& args) {
  if (args.out_path.empty()) {
    std::fprintf(stderr, "build-snapshot: --out is required\n");
    return 2;
  }
  bench::BenchOptions bopts;
  bopts.scale = args.scale;
  bopts.seed = args.seed;
  bopts.filter = "^" + args.scenario + "$";

  util::StopWatch watch;
  std::vector<bench::SweepScenario> scenarios =
      bench::MakeSweepScenarios(bopts);
  if (scenarios.empty()) {
    std::fprintf(stderr, "unknown scenario '%s'\n", args.scenario.c_str());
    return 2;
  }
  bench::SweepScenario& sc = scenarios.front();
  const double gen_seconds = watch.ElapsedSeconds();

  watch.Reset();
  core::TDmatchOptions options = sc.base_options;
  options.export_embeddings = true;
  core::TDmatch engine(options);
  auto run = engine.Run(sc.data.scenario.first, sc.data.scenario.second);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const double train_seconds = watch.ElapsedSeconds();

  serve::SnapshotMeta meta;
  meta.scenario = sc.name;
  meta.Set("scale", bench::ScaleName(args.scale));
  meta.Set("seed", util::StrFormat("%llu",
                                   static_cast<unsigned long long>(args.seed)));
  meta.Set("dim", util::StrFormat("%d", run->embeddings.dim()));
  meta.Set("num_queries",
           util::StrFormat("%zu", sc.data.scenario.first.NumDocs()));
  meta.Set("num_candidates",
           util::StrFormat("%zu", sc.data.scenario.second.NumDocs()));
  meta.Set("query_prefix", kQueryPrefix);
  meta.Set("candidate_prefix", kCandidatePrefix);
  // No wall-clock value goes into the meta: the same flags and seed write
  // a byte-identical file. The timings go to stdout instead.

  // Train the serving index once at build time and embed it as a
  // snapshot section: serving processes adopt it (QueryEngineOptions::
  // use_snapshot_index) instead of re-running k-means at every startup.
  // --pq-m additionally product-quantizes the inverted lists.
  watch.Reset();
  serve::QueryEngineOptions eopts;
  eopts.threads = args.threads;
  eopts.use_snapshot_index = false;  // nothing to adopt; we produce it
  eopts.ivf.pq_m = args.pq_m;
  serve::Snapshot snap;
  snap.meta = meta;
  snap.table = std::move(run->embeddings);
  auto qe = serve::QueryEngine::BuildForPrefix(std::move(snap),
                                               kCandidatePrefix, eopts);
  if (!qe.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 qe.status().ToString().c_str());
    return 1;
  }
  const double index_seconds = watch.ElapsedSeconds();
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back(serve::QueryEngine::kIvfSectionTag,
                        qe->SerializeIvfSection());

  watch.Reset();
  util::Status st = serve::SnapshotIo::Write(qe->table(), meta,
                                             sections, args.out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::ifstream probe(args.out_path,
                      std::ios::binary | std::ios::ate);
  std::printf(
      "wrote %s: scenario=%s vectors=%zu dim=%d bytes=%lld\n"
      "index section: %s, %zu bytes (%zu candidates)\n"
      "timings: generate=%.2fs train=%.2fs index=%.2fs write=%.3fs\n",
      args.out_path.c_str(), sc.name.c_str(), qe->table().size(),
      qe->table().dim(),
      static_cast<long long>(probe ? static_cast<long long>(probe.tellg())
                                   : -1),
      qe->ivf_index()->name().c_str(), sections.front().second.size(),
      qe->num_candidates(), gen_seconds, train_seconds, index_seconds,
      watch.ElapsedSeconds());
  return 0;
}

util::Result<serve::QueryEngine> LoadEngine(const ServeArgs& args) {
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const serve::SnapshotView> view,
                       serve::SnapshotView::Open(args.snapshot_path));
  std::string prefix = view->meta().Find("candidate_prefix");
  if (prefix.empty()) prefix = kCandidatePrefix;
  serve::QueryEngineOptions opts;
  opts.threads = args.threads;
  opts.default_k = args.k;
  opts.build_ivf = !args.exact;
  opts.ivf.nprobe = args.nprobe;
  opts.ivf.pq_m = args.pq_m;
  return serve::QueryEngine::BuildFromView(std::move(view), prefix, opts);
}

/// `tdmatch_serve isa`: one line for CI logs — which kernel set queries
/// will actually run on this machine, and why.
int RunIsa() {
  std::printf("active ISA: %s (cpu avx2+fma: %s, compiled avx2: %s, "
              "TDMATCH_FORCE_SCALAR: %s)\n",
              simd::IsaName(simd::ActiveIsa()),
              simd::CpuHasAvx2Fma() ? "yes" : "no",
              simd::BuildHasAvx2() ? "yes" : "no",
              simd::ForcedScalarByEnv() ? "set" : "unset");
  return 0;
}

int RunInfo(const ServeArgs& args) {
  auto snap = serve::SnapshotIo::Read(args.snapshot_path);
  if (!snap.ok()) {
    std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot %s\n  scenario: %s\n  vectors: %zu  dim: %d\n",
              args.snapshot_path.c_str(), snap->meta.scenario.c_str(),
              snap->table.size(), snap->table.dim());
  for (const auto& kv : snap->meta.extra) {
    std::printf("  %s: %s\n", kv.first.c_str(), kv.second.c_str());
  }
  for (const auto& sec : snap->sections) {
    std::printf("  section %s: %zu bytes\n", sec.first.c_str(),
                sec.second.size());
  }
  return 0;
}

int RunQueryRepl(const ServeArgs& args) {
  util::StopWatch watch;
  auto engine = LoadEngine(args);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "loaded %s: %zu candidates, %s index, %.3fs; enter a label "
               "(or q:<i> / c:<i>), empty line quits\n",
               args.snapshot_path.c_str(), engine->num_candidates(),
               engine->has_ivf() ? "ivf+exact" : "exact",
               watch.ElapsedSeconds());
  std::string line;
  size_t failed = 0;
  while (std::getline(std::cin, line)) {
    const std::string label = ResolveInput(line, engine->meta());
    if (label.empty()) break;
    util::StopWatch qwatch;
    auto result = engine->Query(label, args.k,
                                args.exact ? serve::SearchMode::kExact
                                           : serve::SearchMode::kApprox);
    const double ms = qwatch.ElapsedMillis();
    if (!result.ok() || result->empty()) ++failed;
    PrintMatches(label, result);
    std::fprintf(stderr, "  (%.3f ms)\n", ms);
  }
  // Failures must surface in the exit code: the CI end-to-end smoke pipes
  // queries through this path and has no other way to notice a broken
  // snapshot → query handoff.
  return failed == 0 ? 0 : 1;
}

int RunBatch(const ServeArgs& args) {
  if (args.queries_path.empty()) {
    std::fprintf(stderr, "batch: --queries is required\n");
    return 2;
  }
  auto engine = LoadEngine(args);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  // .jsonl files go through the JSONL corpus loader (one record per line,
  // the --field field holds the query label); anything else is one label
  // per line.
  std::vector<std::string> labels;
  if (util::EndsWith(args.queries_path, ".jsonl")) {
    corpus::JsonlTextOptions jopts;
    jopts.text_field = args.field;
    auto queries = corpus::Loader::TextsFromJsonl(args.queries_path,
                                                  "queries", jopts);
    if (!queries.ok()) {
      std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < queries->NumDocs(); ++i) {
      labels.push_back(ResolveInput(queries->DocText(i), engine->meta()));
    }
  } else {
    std::ifstream in(args.queries_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.queries_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::string label = ResolveInput(line, engine->meta());
      if (!label.empty()) labels.push_back(label);
    }
  }
  if (labels.empty()) {
    std::fprintf(stderr, "%s contains no queries\n",
                 args.queries_path.c_str());
    return 1;
  }

  util::StopWatch watch;
  auto results = engine->QueryBatch(labels, args.k,
                                    args.exact ? serve::SearchMode::kExact
                                               : serve::SearchMode::kApprox);
  const double seconds = watch.ElapsedSeconds();
  size_t failed = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!results[i].ok()) ++failed;
    PrintMatches(labels[i], results[i]);
  }
  std::fprintf(stderr,
               "%zu queries in %.3fs (%.0f qps, %zu threads, %s index), "
               "%zu failed\n",
               labels.size(), seconds,
               static_cast<double>(labels.size()) / std::max(seconds, 1e-9),
               args.threads, engine->has_ivf() && !args.exact ? "ivf"
                                                              : "exact",
               failed);
  return failed == 0 ? 0 : 1;
}

int RunServe(const ServeArgs& args) {
  if (args.snapshot_path.empty()) {
    std::fprintf(stderr, "serve: --snapshot is required\n");
    return 2;
  }
  if (args.port > 65535) {
    std::fprintf(stderr, "serve: --port must be <= 65535\n");
    return 2;
  }

  // Block the shutdown signals before any thread exists — the engine
  // pool, the history sampler and the server workers all inherit the
  // mask — then wait for one synchronously on the main thread: the signal
  // is the shutdown command, handled with no async-signal-safety
  // gymnastics, and no thread can take its default action and kill the
  // process instead of draining it.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::http::ServiceOptions sopts;
  sopts.engine.threads = args.threads;
  sopts.engine.default_k = args.k;
  sopts.engine.build_ivf = !args.exact;
  sopts.engine.ivf.nprobe = args.nprobe;
  sopts.engine.ivf.pq_m = args.pq_m;
  sopts.allow_reload = !args.no_reload;
  sopts.max_inflight = args.max_inflight;
  sopts.latency_budget_ms = args.latency_budget_ms;
  sopts.allow_debug_delay = args.allow_delay;
  sopts.trace_sample = args.trace_sample;
  sopts.slow_query_ms = args.slow_query_ms;
  sopts.history_interval_s = args.history_interval_ms / 1000.0;
  sopts.history_points = args.history_points;
  sopts.allow_profile = !args.no_profile;
  sopts.profile_hz = static_cast<int>(args.profile_hz);
  sopts.slo_availability_target = args.slo_target;
  sopts.slo_latency_target = args.slo_target;
  sopts.slo_fast = {args.slo_fast_window_s, args.slo_fast_window_s * 10.0,
                    args.slo_fast_burn};
  sopts.slo_slow = {args.slo_slow_window_s, args.slo_slow_window_s * 10.0,
                    args.slo_slow_burn};
  // The server binary is the one place that publishes into the
  // process-global registry: /v1/metrics is the whole-process view.
  sopts.registry = &util::obs::Registry::Global();

  util::obs::JsonLogger& log = util::obs::JsonLogger::Global();
  log.set_min_level(util::obs::ParseLogLevel(args.log_level));
  if (!args.log_file.empty()) {
    util::Status log_st = log.OpenFile(args.log_file, args.log_max_bytes);
    if (!log_st.ok()) {
      std::fprintf(stderr, "%s\n", log_st.ToString().c_str());
      return 1;
    }
  }
  sopts.logger = &log;

  serve::http::MatchService service(sopts);
  util::Status st = service.LoadInitial(args.snapshot_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  serve::http::HttpServerOptions hopts;
  hopts.bind_address = args.bind;
  hopts.port = static_cast<uint16_t>(args.port);
  hopts.threads = args.http_threads;
  serve::http::HttpServer server(hopts);
  service.Register(&server);

  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto state = service.state();
  log.Log(util::obs::LogLevel::kInfo, "serve_start")
      .Str("snapshot", args.snapshot_path)
      .Str("scenario", state->engine->meta().scenario)
      .Uint("candidates", state->engine->num_candidates())
      .Num("load_seconds", state->load_seconds)
      .Str("bind", args.bind)
      .Uint("port", server.port())
      .Num("trace_sample", args.trace_sample)
      .Num("slow_query_ms", args.slow_query_ms);

  int sig = 0;
  while (sigwait(&signals, &sig) != 0) {
  }
  log.Log(util::obs::LogLevel::kInfo, "serve_drain").Int("signal", sig);
  server.Stop();
  log.Log(util::obs::LogLevel::kInfo, "serve_stop")
      .Uint("requests_served", server.requests_served());
  return 0;
}

int RunConvert(const ServeArgs& args) {
  if (args.in_path.empty() || args.out_path.empty()) {
    std::fprintf(stderr, "convert: --in and --out are required\n");
    return 2;
  }
  // Sniff the direction from the input's magic.
  char magic[4] = {0, 0, 0, 0};
  {
    std::ifstream probe(args.in_path, std::ios::binary);
    if (!probe) {
      std::fprintf(stderr, "cannot open %s\n", args.in_path.c_str());
      return 1;
    }
    probe.read(magic, sizeof(magic));
  }
  util::Status st;
  if (std::string(magic, 4) == "TDMS") {
    st = serve::SnapshotIo::ConvertSnapshotToText(args.in_path,
                                                  args.out_path);
  } else {
    serve::SnapshotMeta meta;
    meta.scenario = args.scenario;
    meta.Set("source", args.in_path);
    st = serve::SnapshotIo::ConvertTextToSnapshot(args.in_path, meta,
                                                  args.out_path);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("converted %s -> %s\n", args.in_path.c_str(),
              args.out_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  ServeArgs args;
  args.mode = argv[1];

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--exact") {
      args.exact = true;
    } else if (flag == "--no-reload") {
      args.no_reload = true;
    } else if (flag == "--bind" && (v = next())) {
      args.bind = v;
    } else if (flag == "--port" && (v = next())) {
      if (!ParseSize(v, &args.port)) {
        std::fprintf(stderr, "bad --port '%s'\n", v);
        return 2;
      }
    } else if (flag == "--http-threads" && (v = next())) {
      if (!ParseSize(v, &args.http_threads) || args.http_threads == 0) {
        std::fprintf(stderr, "bad --http-threads '%s'\n", v);
        return 2;
      }
    } else if (flag == "--scenario" && (v = next())) {
      args.scenario = v;
    } else if (flag == "--out" && (v = next())) {
      args.out_path = v;
    } else if (flag == "--in" && (v = next())) {
      args.in_path = v;
    } else if (flag == "--snapshot" && (v = next())) {
      args.snapshot_path = v;
    } else if (flag == "--queries" && (v = next())) {
      args.queries_path = v;
    } else if (flag == "--field" && (v = next())) {
      args.field = v;
    } else if (flag == "--scale" && (v = next())) {
      const std::string s = v;
      if (s == "smoke") args.scale = bench::Scale::kSmoke;
      else if (s == "sweep") args.scale = bench::Scale::kSweep;
      else if (s == "full") args.scale = bench::Scale::kFull;
      else { std::fprintf(stderr, "bad --scale '%s'\n", v); return 2; }
    } else if (flag == "--seed" && (v = next())) {
      size_t seed = 0;
      if (!ParseSize(v, &seed)) {
        std::fprintf(stderr, "bad --seed '%s'\n", v);
        return 2;
      }
      args.seed = seed;
    } else if (flag == "--k" && (v = next())) {
      if (!ParseSize(v, &args.k) || args.k == 0) {
        std::fprintf(stderr, "bad --k '%s'\n", v);
        return 2;
      }
    } else if (flag == "--nprobe" && (v = next())) {
      if (!ParseSize(v, &args.nprobe) || args.nprobe == 0) {
        std::fprintf(stderr, "bad --nprobe '%s'\n", v);
        return 2;
      }
    } else if (flag == "--pq-m" && (v = next())) {
      if (!ParseSize(v, &args.pq_m)) {
        std::fprintf(stderr, "bad --pq-m '%s'\n", v);
        return 2;
      }
    } else if (flag == "--threads" && (v = next())) {
      if (!ParseSize(v, &args.threads) || args.threads == 0) {
        std::fprintf(stderr, "bad --threads '%s'\n", v);
        return 2;
      }
    } else if (flag == "--max-inflight" && (v = next())) {
      // 0 is deliberate: shed everything (drain mode).
      if (!ParseSize(v, &args.max_inflight)) {
        std::fprintf(stderr, "bad --max-inflight '%s'\n", v);
        return 2;
      }
    } else if (flag == "--latency-budget-ms" && (v = next())) {
      if (!util::ParseDouble(v, &args.latency_budget_ms) ||
          args.latency_budget_ms < 0.0) {
        std::fprintf(stderr, "bad --latency-budget-ms '%s'\n", v);
        return 2;
      }
    } else if (flag == "--allow-delay") {
      args.allow_delay = true;
    } else if (flag == "--trace-sample" && (v = next())) {
      if (!util::ParseDouble(v, &args.trace_sample) ||
          args.trace_sample < 0.0 || args.trace_sample > 1.0) {
        std::fprintf(stderr, "bad --trace-sample '%s'\n", v);
        return 2;
      }
    } else if (flag == "--slow-query-ms" && (v = next())) {
      if (!util::ParseDouble(v, &args.slow_query_ms) ||
          args.slow_query_ms < 0.0) {
        std::fprintf(stderr, "bad --slow-query-ms '%s'\n", v);
        return 2;
      }
    } else if (flag == "--log-level" && (v = next())) {
      args.log_level = v;
    } else if (flag == "--log-file" && (v = next())) {
      args.log_file = v;
    } else if (flag == "--log-max-bytes" && (v = next())) {
      if (!ParseSize(v, &args.log_max_bytes)) {
        std::fprintf(stderr, "bad --log-max-bytes '%s'\n", v);
        return 2;
      }
    } else if (flag == "--history-interval-ms" && (v = next())) {
      if (!util::ParseDouble(v, &args.history_interval_ms) ||
          args.history_interval_ms < 0.0) {
        std::fprintf(stderr, "bad --history-interval-ms '%s'\n", v);
        return 2;
      }
    } else if (flag == "--history-points" && (v = next())) {
      if (!ParseSize(v, &args.history_points) || args.history_points == 0) {
        std::fprintf(stderr, "bad --history-points '%s'\n", v);
        return 2;
      }
    } else if (flag == "--slo-target" && (v = next())) {
      if (!util::ParseDouble(v, &args.slo_target) || args.slo_target <= 0.0 ||
          args.slo_target >= 1.0) {
        std::fprintf(stderr, "bad --slo-target '%s' (want 0 < F < 1)\n", v);
        return 2;
      }
    } else if (flag == "--slo-fast-window-s" && (v = next())) {
      if (!util::ParseDouble(v, &args.slo_fast_window_s) ||
          args.slo_fast_window_s <= 0.0) {
        std::fprintf(stderr, "bad --slo-fast-window-s '%s'\n", v);
        return 2;
      }
    } else if (flag == "--slo-slow-window-s" && (v = next())) {
      if (!util::ParseDouble(v, &args.slo_slow_window_s) ||
          args.slo_slow_window_s <= 0.0) {
        std::fprintf(stderr, "bad --slo-slow-window-s '%s'\n", v);
        return 2;
      }
    } else if (flag == "--slo-fast-burn" && (v = next())) {
      if (!util::ParseDouble(v, &args.slo_fast_burn) ||
          args.slo_fast_burn <= 0.0) {
        std::fprintf(stderr, "bad --slo-fast-burn '%s'\n", v);
        return 2;
      }
    } else if (flag == "--slo-slow-burn" && (v = next())) {
      if (!util::ParseDouble(v, &args.slo_slow_burn) ||
          args.slo_slow_burn <= 0.0) {
        std::fprintf(stderr, "bad --slo-slow-burn '%s'\n", v);
        return 2;
      }
    } else if (flag == "--no-profile") {
      args.no_profile = true;
    } else if (flag == "--profile-hz" && (v = next())) {
      if (!ParseSize(v, &args.profile_hz) || args.profile_hz == 0 ||
          args.profile_hz > 1000) {
        std::fprintf(stderr, "bad --profile-hz '%s' (want 1..1000)\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return Usage(argv[0]);
    }
  }

  if (args.mode == "build-snapshot") return RunBuildSnapshot(args);
  if (args.mode == "info") return RunInfo(args);
  if (args.mode == "isa") return RunIsa();
  if (args.mode == "query") return RunQueryRepl(args);
  if (args.mode == "batch") return RunBatch(args);
  if (args.mode == "convert") return RunConvert(args);
  if (args.mode == "serve") return RunServe(args);
  std::fprintf(stderr, "unknown mode '%s'\n", args.mode.c_str());
  return Usage(argv[0]);
}

}  // namespace
}  // namespace tdmatch

int main(int argc, char** argv) { return tdmatch::Main(argc, argv); }
