#include "serve/http/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "serve/mmap_snapshot.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/simd/kernels.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tdmatch {
namespace serve {
namespace http {

namespace {

int StatusToHttp(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInvalidArgument: return 400;
    case util::StatusCode::kNotFound: return 404;
    case util::StatusCode::kIOError: return 500;
    default: return 500;
  }
}

HttpResponse ErrorResponse(int http_status, const std::string& message) {
  util::JsonWriter w;
  w.BeginObject().Key("error").Value(message).EndObject();
  return HttpResponse::Json(http_status, w.str());
}

HttpResponse ErrorResponse(const util::Status& status) {
  return ErrorResponse(StatusToHttp(status), status.ToString());
}

void AppendMatches(const std::vector<ScoredMatch>& matches,
                   util::JsonWriter* w) {
  w->Key("matches").BeginArray();
  for (const auto& m : matches) {
    w->BeginObject()
        .Key("label").Value(m.label)
        .Key("candidate").Value(static_cast<int64_t>(m.candidate))
        .Key("score").Value(m.score)
        .EndObject();
  }
  w->EndArray();
}

std::string CompilerId() {
#if defined(__clang__)
  return util::StrFormat("clang-%d.%d.%d", __clang_major__, __clang_minor__,
                         __clang_patchlevel__);
#elif defined(__GNUC__)
  return util::StrFormat("gcc-%d.%d.%d", __GNUC__, __GNUC_MINOR__,
                         __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// MatchService
// ---------------------------------------------------------------------------

const char* const MatchService::kStageNames[MatchService::kStages] = {
    "parse", "admission", "search", "serialize"};

MatchService::MatchService(ServiceOptions options)
    : options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()),
      sampler_(options_.trace_sample),
      admission_(AdmissionOptions{options_.max_inflight, 1, 30}) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<util::obs::Registry>();
    registry_ = owned_registry_.get();
  }
  logger_ = options_.logger != nullptr ? options_.logger
                                       : &util::obs::JsonLogger::Global();

  // Owned instruments: the hot path bumps these directly (one relaxed
  // atomic per event); /v1/metrics reads them back.
  queries_ = registry_->GetCounter("tdmatch_queries_total",
                                   "Queries answered (batch items count "
                                   "individually)");
  errors_ = registry_->GetCounter("tdmatch_query_errors_total",
                                  "Requests or batch items rejected or "
                                  "failed");
  reloads_ = registry_->GetCounter("tdmatch_reloads_total",
                                   "Successful snapshot hot reloads");
  traces_ = registry_->GetCounter("tdmatch_traces_total",
                                  "Requests that carried a span trace");
  slow_queries_ = registry_->GetCounter(
      "tdmatch_slow_queries_total",
      "Traced requests slower than --slow-query-ms");
  latency_ = registry_->GetHistogram(
      "tdmatch_request_latency_ms", "End-to-end /v1/query latency (ms)",
      util::obs::Histogram::LatencyBoundsMs());
  for (size_t i = 0; i < kStages; ++i) {
    stage_latency_[i] = registry_->GetHistogram(
        "tdmatch_request_stage_latency_ms",
        "Per-stage latency of traced /v1/query requests (ms)",
        util::obs::Histogram::LatencyBoundsMs(),
        {{"stage", kStageNames[i]}});
  }

  // The admission controller keeps its own counters and publishes them
  // through render-time callbacks: the registry is the single exposition
  // surface without double-counting state.
  using util::obs::MetricType;
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_admission_admitted_total",
      "Queries admitted past the in-flight budget check", {},
      [this] { return static_cast<double>(admission_.admitted()); });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_admission_shed_total",
      "Queries shed with 429 at the admission gate", {},
      [this] { return static_cast<double>(admission_.shed()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_admission_inflight",
      "Queries currently inside the admission window", {},
      [this] { return static_cast<double>(admission_.inflight()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_admission_max_inflight",
      "Admission budget (-1 = unlimited)", {}, [this] {
        return admission_.unlimited()
                   ? -1.0
                   : static_cast<double>(admission_.options().max_inflight);
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_snapshot_version",
      "Serving epoch of the loaded snapshot", {}, [this] {
        const auto s = state();
        return s != nullptr ? static_cast<double>(s->version) : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_snapshot_load_seconds",
      "Wall seconds the current snapshot took to load + index", {},
      [this] {
        const auto s = state();
        return s != nullptr ? s->load_seconds : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_uptime_seconds",
      "Seconds since the service constructed", {}, [this] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_time_)
            .count();
      });

  // Continuous observability: metric-history rings over this registry
  // and the burn-rate SLO tracker. Both exist unconditionally (the
  // endpoints always answer); the background history sampler starts at
  // LoadInitial only when an interval is configured.
  util::obs::TimeSeriesOptions history_opts;
  history_opts.interval_seconds =
      options_.history_interval_s > 0 ? options_.history_interval_s : 1.0;
  history_opts.capacity = options_.history_points;
  history_opts.name_prefix = "tdmatch_";
  history_ =
      std::make_unique<util::obs::TimeSeriesStore>(registry_, history_opts);
  history_sampler_ =
      std::make_unique<util::obs::TimeSeriesSampler>(history_.get());

  util::obs::SloOptions slo_opts;
  slo_opts.availability_target = options_.slo_availability_target;
  slo_opts.latency_target = options_.slo_latency_target;
  slo_opts.latency_budget_ms = options_.latency_budget_ms;
  slo_opts.fast = options_.slo_fast;
  slo_opts.slow = options_.slo_slow;
  // Resolution fine enough that the fast-short window spans several
  // buckets (tests shrink the window to fractions of a second).
  slo_opts.bucket_seconds =
      std::min(5.0, std::max(0.05, options_.slo_fast.short_seconds / 4.0));
  slo_ = std::make_unique<util::obs::SloTracker>(slo_opts);

  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_history_series",
      "Metric series retained in the history rings", {},
      [this] { return static_cast<double>(history_->series_count()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_history_memory_bytes",
      "Resident bytes of the metric-history rings", {},
      [this] { return static_cast<double>(history_->MemoryBytes()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_slo_degraded",
      "1 while any SLO fast-burn pair is firing", {},
      [this] { return slo_->Degraded(NowSeconds()) ? 1.0 : 0.0; });
}

MatchService::~MatchService() {
  if (history_sampler_ != nullptr) history_sampler_->Stop();
}

double MatchService::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::Result<std::shared_ptr<const EngineState>> MatchService::BuildState(
    const std::string& path, uint64_t version) const {
  util::StopWatch watch;
  auto state = std::make_shared<EngineState>();
  state->version = version;
  state->snapshot_path = path;
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotView> view,
                       SnapshotView::Open(path));
  std::string prefix = view->meta().Find("candidate_prefix");
  if (prefix.empty()) prefix = "__D1:";
  state->snapshot_format = view->sections().empty()
                               ? SnapshotIo::kVersion
                               : SnapshotIo::kVersionSections;
  TDM_ASSIGN_OR_RETURN(
      QueryEngine engine,
      QueryEngine::BuildFromView(std::move(view), prefix, options_.engine));
  state->engine = std::make_shared<const QueryEngine>(std::move(engine));
  state->load_seconds = watch.ElapsedSeconds();
  return std::shared_ptr<const EngineState>(std::move(state));
}

void MatchService::PublishStateMetrics(const EngineState& state) {
  // build_info: the conventional value-1 gauge whose labels carry the
  // identity — compiler, runtime SIMD dispatch decision, and the served
  // snapshot's format, scenario, candidate count, dim and index kind.
  // Re-registered per epoch (a reload can change every snapshot label);
  // the build identity is otherwise process-constant.
  const QueryEngine& engine = *state.engine;
  registry_->ClearCallbacks("tdmatch_build_info");
  util::obs::LabelSet info = {
      {"compiler", CompilerId()},
      {"simd", simd::IsaName(simd::ActiveIsa())},
      {"forced_scalar", simd::ForcedScalarByEnv() ? "1" : "0"},
      {"snapshot_format", std::to_string(state.snapshot_format)},
      {"scenario", engine.meta().scenario},
      {"candidates", std::to_string(engine.num_candidates())},
      {"dim", std::to_string(engine.dim())},
      {"index", engine.has_ivf() ? "ivf" : "exact"},
  };
  registry_->RegisterCallback(util::obs::MetricType::kGauge,
                              "tdmatch_build_info",
                              "Build/runtime identity (always 1)", info,
                              [] { return 1.0; });
}

util::Status MatchService::LoadInitial(const std::string& snapshot_path) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const EngineState> state,
                       BuildState(snapshot_path, 1));
  PublishStateMetrics(*state);
  std::atomic_store(&state_, std::move(state));
  if (options_.history_interval_s > 0) history_sampler_->Start();
  return util::Status::OK();
}

std::shared_ptr<const EngineState> MatchService::state() const {
  return std::atomic_load(&state_);
}

util::Result<std::shared_ptr<const EngineState>> MatchService::Reload(
    const std::string& path) {
  // One reload at a time; queries never wait on this lock — they read the
  // published epoch pointer and carry on against it.
  std::lock_guard<std::mutex> lock(reload_mu_);
  const std::shared_ptr<const EngineState> current = state();
  if (current == nullptr) {
    return util::Status::Internal("service has no initial snapshot");
  }
  const std::string target = path.empty() ? current->snapshot_path : path;
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const EngineState> fresh,
                       BuildState(target, current->version + 1));
  // Publish. Readers that already pinned `current` finish on it; the old
  // engine (and its mmap) is destroyed when the last pin drops.
  PublishStateMetrics(*fresh);
  std::atomic_store(&state_, fresh);
  reloads_->Inc();
  return fresh;
}

void MatchService::Register(HttpServer* server) {
  server->Handle("POST", "/v1/query",
                 [this](const HttpRequest& r) { return HandleQuery(r); });
  server->Handle("GET", "/v1/healthz",
                 [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Handle("GET", "/v1/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/v1/metrics/history",
                 [this](const HttpRequest& r) { return HandleHistory(r); });
  server->Handle("GET", "/v1/slo",
                 [this](const HttpRequest& r) { return HandleSlo(r); });
  if (options_.allow_profile) {
    server->Handle("GET", "/v1/debug/profile", [this](const HttpRequest& r) {
      return HandleProfile(r);
    });
  }
  if (options_.allow_reload) {
    server->Handle("POST", "/v1/reload",
                   [this](const HttpRequest& r) { return HandleReload(r); });
  }
}

HttpResponse MatchService::ShedResponse() {
  // Retry-After scales with the backlog at a typical (p50) per-query
  // cost; the header is always an integer in [1, 30] seconds.
  const int retry_s =
      admission_.RetryAfterSeconds(latency_->Percentile(0.5));
  util::JsonWriter w;
  w.BeginObject()
      .Key("error").Value(util::StrFormat(
          "overloaded: %zu queries in flight at capacity %zu",
          admission_.inflight(), admission_.options().max_inflight))
      .Key("retry_after_seconds").Value(static_cast<int64_t>(retry_s))
      .EndObject();
  HttpResponse response = HttpResponse::Json(429, w.str());
  response.headers.emplace_back("Retry-After", std::to_string(retry_s));
  return response;
}

HttpResponse MatchService::HandleQuery(const HttpRequest& request) {
  // SLO accounting wraps the whole request: availability counts 5xx
  // against the budget (4xx is the client's fault, 429 is protection
  // working), latency counts end-to-end wall time against the configured
  // budget. Shed requests count too — the user saw them.
  util::StopWatch watch;
  // Trace decision up front: one sampler branch for the untraced fast
  // path. slow_query_ms arms tracing on every request (slowness is only
  // known after the fact), but emits a line solely for slow ones.
  const bool sampled = sampler_.ShouldSample();
  const bool traced = sampled || options_.slow_query_ms > 0.0;
  const std::string& client_id = request.Header("x-request-id");
  HttpResponse response;
  if (!traced) {
    response = HandleQueryTraced(request, nullptr);
    if (!client_id.empty()) {
      response.headers.emplace_back("X-Request-Id", client_id);
    }
  } else {
    util::obs::Trace trace(client_id.empty() ? util::obs::GenerateTraceId()
                                             : client_id);
    const std::shared_ptr<const EngineState> pinned = state();
    response = HandleQueryTraced(request, &trace);
    FinishRequestTrace(&trace, sampled, response.status,
                       pinned != nullptr ? pinned->version : 0);
    response.headers.emplace_back("X-Request-Id", trace.id());
  }
  slo_->Record(NowSeconds(), response.status < 500,
               options_.latency_budget_ms <= 0 ||
                   watch.ElapsedMillis() <= options_.latency_budget_ms);
  return response;
}

void MatchService::FinishRequestTrace(util::obs::Trace* trace, bool sampled,
                                      int status,
                                      uint64_t snapshot_version) {
  const double total_ms = trace->Finish();
  traces_->Inc();
  for (const auto& span : trace->spans()) {
    for (size_t i = 0; i < kStages; ++i) {
      if (std::strcmp(span.name, kStageNames[i]) == 0) {
        stage_latency_[i]->Observe(span.ms);
        break;
      }
    }
  }
  const bool slow =
      options_.slow_query_ms > 0.0 && total_ms >= options_.slow_query_ms;
  if (slow) slow_queries_->Inc();
  // One JSONL line per sampled trace or slow query; armed-but-fast
  // requests fed the histograms above and stay silent.
  if (!sampled && !slow) return;
  auto ev = logger_->Log(util::obs::LogLevel::kInfo, "trace");
  if (!ev.active()) return;
  ev.Str("trace_id", trace->id())
      .Str("endpoint", "/v1/query")
      .Int("status", status)
      .Num("total_ms", total_ms)
      .Bool("slow", slow)
      .Bool("sampled", sampled)
      .Uint("snapshot_version", snapshot_version);
  util::JsonWriter& w = ev.writer();
  w.Key("spans").BeginArray();
  for (const auto& span : trace->spans()) {
    w.BeginObject()
        .Key("name").Value(span.name)
        .Key("start_ms").Value(span.start_ms)
        .Key("ms").Value(span.ms)
        .Key("depth").Value(static_cast<int64_t>(span.depth))
        .EndObject();
  }
  w.EndArray();
}

HttpResponse MatchService::HandleQueryTraced(const HttpRequest& request,
                                             util::obs::Trace* trace) {
  util::StopWatch watch;
  const std::shared_ptr<const EngineState> state = this->state();
  if (state == nullptr) {
    return ErrorResponse(503, "no snapshot loaded");
  }
  const QueryEngine& engine = *state->engine;

  // --- parse + validate ----------------------------------------------------
  util::obs::Trace::Span parse_span(trace, "parse");
  auto parsed = util::JsonParse(request.body);
  if (!parsed.ok()) {
    errors_->Inc();
    return ErrorResponse(400, "bad request body: " +
                                  parsed.status().message());
  }
  const util::JsonValue& root = *parsed;
  if (!root.is_object()) {
    errors_->Inc();
    return ErrorResponse(400, "request body must be a JSON object");
  }

  // --- common knobs -------------------------------------------------------
  size_t k = 0;
  if (const util::JsonValue* kv = root.Find("k"); kv != nullptr) {
    const double kd = kv->number_value();
    if (!kv->is_number() || kd < 0 || kd > 1e6 ||
        kd != std::floor(kd)) {
      errors_->Inc();
      return ErrorResponse(400, "'k' must be an integer in [0, 1e6]");
    }
    k = static_cast<size_t>(kd);
  }
  SearchMode mode = SearchMode::kApprox;
  if (const util::JsonValue* mv = root.Find("mode"); mv != nullptr) {
    if (!mv->is_string() || (mv->string_value() != "approx" &&
                             mv->string_value() != "exact")) {
      errors_->Inc();
      return ErrorResponse(400, "'mode' must be \"approx\" or \"exact\"");
    }
    if (mv->string_value() == "exact") mode = SearchMode::kExact;
  }

  const util::JsonValue* label = root.Find("label");
  const util::JsonValue* labels = root.Find("labels");
  const util::JsonValue* vector = root.Find("vector");
  const util::JsonValue* allowed = root.Find("allowed");
  const int selectors = (label != nullptr) + (labels != nullptr) +
                        (vector != nullptr);
  if (selectors != 1) {
    errors_->Inc();
    return ErrorResponse(400, "provide exactly one of 'label', 'labels', "
                              "'vector'");
  }
  if (allowed != nullptr && label == nullptr) {
    errors_->Inc();
    return ErrorResponse(400, "'allowed' requires a single 'label' query");
  }

  // --- debug delay (only honored with allow_debug_delay) -----------------
  double delay_ms = 0.0;
  if (const util::JsonValue* dv = root.Find("delay_ms");
      dv != nullptr && options_.allow_debug_delay) {
    if (!dv->is_number() || dv->number_value() < 0.0 ||
        dv->number_value() > 10000.0) {
      errors_->Inc();
      return ErrorResponse(400, "'delay_ms' must be a number in [0, 10000]");
    }
    delay_ms = dv->number_value();
  }

  parse_span.Close();

  // --- admission: shed instead of queueing past the in-flight budget ------
  util::obs::Trace::Span admission_span(trace, "admission");
  AdmissionController::Ticket ticket(&admission_);
  if (!ticket.admitted()) {
    return ShedResponse();
  }
  admission_span.Close();
  if (delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }

  util::JsonWriter w;
  w.BeginObject()
      .Key("snapshot_version").Value(state->version)
      .Key("scenario").Value(engine.meta().scenario);

  if (labels != nullptr) {
    // --- batch ------------------------------------------------------------
    if (!labels->is_array()) {
      errors_->Inc();
      return ErrorResponse(400, "'labels' must be an array of strings");
    }
    if (labels->items().size() > options_.max_batch) {
      errors_->Inc();
      return ErrorResponse(
          400, util::StrFormat("batch of %zu exceeds the %zu query limit",
                               labels->items().size(), options_.max_batch));
    }
    std::vector<std::string> names;
    names.reserve(labels->items().size());
    for (const auto& item : labels->items()) {
      if (!item.is_string()) {
        errors_->Inc();
        return ErrorResponse(400, "'labels' must be an array of strings");
      }
      names.push_back(ResolveLabel(item.string_value(), engine.meta()));
    }
    util::obs::Trace::Span search_span(trace, "search");
    const auto results = engine.QueryBatch(names, k, mode);
    search_span.Close();
    queries_->Inc(names.size());
    util::obs::Trace::Span serialize_span(trace, "serialize");
    w.Key("results").BeginArray();
    for (size_t i = 0; i < results.size(); ++i) {
      w.BeginObject().Key("label").Value(names[i]);
      if (results[i].ok()) {
        AppendMatches(*results[i], &w);
      } else {
        errors_->Inc();
        w.Key("error").Value(results[i].status().ToString());
      }
      w.EndObject();
    }
    w.EndArray();
  } else if (label != nullptr) {
    // --- single, optionally blocked --------------------------------------
    if (!label->is_string()) {
      errors_->Inc();
      return ErrorResponse(400, "'label' must be a string");
    }
    const std::string name =
        ResolveLabel(label->string_value(), engine.meta());
    util::Result<std::vector<ScoredMatch>> result =
        std::vector<ScoredMatch>{};
    if (allowed != nullptr) {
      if (!allowed->is_array()) {
        errors_->Inc();
        return ErrorResponse(400, "'allowed' must be an array of strings");
      }
      std::vector<std::string> block;
      block.reserve(allowed->items().size());
      for (const auto& item : allowed->items()) {
        if (!item.is_string()) {
          errors_->Inc();
          return ErrorResponse(400,
                               "'allowed' must be an array of strings");
        }
        block.push_back(ResolveLabel(item.string_value(), engine.meta()));
      }
      util::obs::Trace::Span search_span(trace, "search");
      result = engine.QueryFiltered(name, block, k);
    } else {
      util::obs::Trace::Span search_span(trace, "search");
      result = engine.Query(name, k, mode);
    }
    queries_->Inc();
    if (!result.ok()) {
      errors_->Inc();
      return ErrorResponse(result.status());
    }
    util::obs::Trace::Span serialize_span(trace, "serialize");
    w.Key("label").Value(name);
    AppendMatches(*result, &w);
  } else {
    // --- raw vector -------------------------------------------------------
    if (!vector->is_array() || vector->items().empty()) {
      errors_->Inc();
      return ErrorResponse(400, "'vector' must be a non-empty number "
                                "array");
    }
    std::vector<float> q;
    q.reserve(vector->items().size());
    for (const auto& item : vector->items()) {
      if (!item.is_number()) {
        errors_->Inc();
        return ErrorResponse(400, "'vector' must be a non-empty number "
                                  "array");
      }
      q.push_back(static_cast<float>(item.number_value()));
    }
    util::obs::Trace::Span search_span(trace, "search");
    const auto result = engine.QueryVector(q, k, mode);
    search_span.Close();
    queries_->Inc();
    if (!result.ok()) {
      errors_->Inc();
      return ErrorResponse(result.status());
    }
    util::obs::Trace::Span serialize_span(trace, "serialize");
    AppendMatches(*result, &w);
  }

  util::obs::Trace::Span finish_span(trace, "serialize");
  w.EndObject();
  std::string body = w.str();
  finish_span.Close();
  latency_->Observe(watch.ElapsedMillis());
  return HttpResponse::Json(200, std::move(body));
}

HttpResponse MatchService::HandleHealth(const HttpRequest& request) {
  const std::shared_ptr<const EngineState> state = this->state();
  if (state == nullptr) {
    return ErrorResponse(503, "no snapshot loaded");
  }
  // Degraded is report-first: the process is alive and serving, it is
  // just burning error budget too fast — so the default answer stays 200
  // (load balancers must not evict a struggling-but-working replica).
  // `?strict=1` opts a prober into 503-on-degraded.
  const double now = NowSeconds();
  std::vector<std::string> burning;
  for (const auto& objective : slo_->Evaluate(now)) {
    if (objective.fast_burning) burning.push_back(objective.name);
  }
  const bool degraded = !burning.empty();
  util::JsonWriter w;
  w.BeginObject()
      .Key("status").Value(degraded ? "degraded" : "ok")
      .Key("snapshot_version").Value(state->version);
  if (degraded) {
    w.Key("burning_objectives").BeginArray();
    for (const auto& name : burning) w.Value(name);
    w.EndArray();
  }
  w.EndObject();
  const bool strict = QueryParam(request.query, "strict") == "1";
  return HttpResponse::Json(degraded && strict ? 503 : 200, w.str());
}

HttpResponse MatchService::HandleHistory(const HttpRequest& request) {
  double window_s = 300.0;
  const std::string window = QueryParam(request.query, "window");
  if (!window.empty()) {
    char* end = nullptr;
    window_s = std::strtod(window.c_str(), &end);
    if (end == window.c_str() || window_s <= 0 || !std::isfinite(window_s)) {
      return ErrorResponse(400, "'window' must be a positive number of "
                                "seconds");
    }
  }
  const std::string prefix = QueryParam(request.query, "series");
  // Points are heavy (every series × every sample); opt in explicitly.
  const bool with_points = QueryParam(request.query, "points") == "1";
  const double now = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  const auto series = history_->Window(window_s, now, prefix);
  util::JsonWriter w;
  w.Reserve(4096);
  w.BeginObject()
      .Key("now").Value(now)
      .Key("window_seconds").Value(window_s)
      .Key("interval_seconds").Value(history_->options().interval_seconds)
      .Key("retention_seconds")
      .Value(history_->options().interval_seconds *
             static_cast<double>(history_->options().capacity))
      .Key("samples_taken").Value(history_->samples_taken())
      .Key("series").BeginArray();
  for (const auto& s : series) {
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("labels").Value(s.labels)
        .Key("type").Value(s.type == util::obs::MetricType::kCounter
                               ? "counter"
                               : "gauge")
        .Key("points_count").Value(static_cast<uint64_t>(s.points.size()))
        .Key("first_ts").Value(s.points.front().ts)
        .Key("last_ts").Value(s.points.back().ts)
        .Key("last").Value(s.last)
        .Key("delta").Value(s.delta)
        .Key("rate_per_sec").Value(s.rate_per_sec);
    if (with_points) {
      w.Key("points").BeginArray();
      for (const auto& p : s.points) {
        w.BeginArray().Value(p.ts).Value(p.value).EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return HttpResponse::Json(200, w.str());
}

namespace {

void AppendBurn(const char* role, const util::obs::SloTracker::WindowBurn& b,
                double threshold, util::JsonWriter* w) {
  w->BeginObject()
      .Key("role").Value(role)
      .Key("window_seconds").Value(b.window_seconds)
      .Key("good").Value(b.good)
      .Key("bad").Value(b.bad)
      .Key("error_rate").Value(b.error_rate)
      .Key("burn_rate").Value(b.burn_rate)
      .Key("threshold").Value(threshold)
      .EndObject();
}

}  // namespace

HttpResponse MatchService::HandleSlo(const HttpRequest&) {
  const double now = NowSeconds();
  const auto objectives = slo_->Evaluate(now);
  const auto& slo_opts = slo_->options();
  bool degraded = false;
  for (const auto& o : objectives) degraded |= o.fast_burning;
  util::JsonWriter w;
  w.BeginObject()
      .Key("degraded").Value(degraded)
      .Key("latency_budget_ms").Value(slo_opts.latency_budget_ms)
      .Key("objectives").BeginArray();
  for (const auto& o : objectives) {
    w.BeginObject()
        .Key("name").Value(o.name)
        .Key("target").Value(o.target)
        .Key("fast_burning").Value(o.fast_burning)
        .Key("slow_burning").Value(o.slow_burning)
        .Key("error_budget_remaining").Value(o.budget_remaining)
        .Key("windows").BeginArray();
    AppendBurn("fast_short", o.fast_short, slo_opts.fast.threshold, &w);
    AppendBurn("fast_long", o.fast_long, slo_opts.fast.threshold, &w);
    AppendBurn("slow_short", o.slow_short, slo_opts.slow.threshold, &w);
    AppendBurn("slow_long", o.slow_long, slo_opts.slow.threshold, &w);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return HttpResponse::Json(200, w.str());
}

HttpResponse MatchService::HandleProfile(const HttpRequest& request) {
  if (!util::obs::CpuProfiler::Supported()) {
    return ErrorResponse(501, "CPU profiling is not supported on this "
                              "platform");
  }
  double seconds = 1.0;
  const std::string seconds_param = QueryParam(request.query, "seconds");
  if (!seconds_param.empty()) {
    char* end = nullptr;
    seconds = std::strtod(seconds_param.c_str(), &end);
    if (end == seconds_param.c_str() || seconds <= 0 ||
        !std::isfinite(seconds)) {
      return ErrorResponse(400, "'seconds' must be a positive number");
    }
  }
  seconds = std::min(seconds, options_.profile_max_seconds);
  int hz = options_.profile_hz;
  const std::string hz_param = QueryParam(request.query, "hz");
  if (!hz_param.empty()) {
    hz = std::atoi(hz_param.c_str());
    if (hz < 1 || hz > 1000) {
      return ErrorResponse(400, "'hz' must be an integer in [1, 1000]");
    }
  }
  const std::string format = QueryParam(request.query, "format");
  if (!format.empty() && format != "folded" && format != "json") {
    return ErrorResponse(400, "'format' must be \"folded\" or \"json\"");
  }
  // The capture blocks this worker for the window — deliberate: the
  // profile IS the response body, and the blocked worker is one of many.
  auto profile =
      util::obs::CpuProfiler::Global().ProfileFor(seconds, hz);
  if (!profile.ok()) {
    if (profile.status().IsAlreadyExists()) {
      return ErrorResponse(409, "another profile capture is running");
    }
    return ErrorResponse(profile.status());
  }
  if (format == "json") {
    size_t top_n = 20;
    const std::string top = QueryParam(request.query, "top");
    if (!top.empty()) {
      const int parsed_top = std::atoi(top.c_str());
      if (parsed_top > 0) top_n = static_cast<size_t>(parsed_top);
    }
    return HttpResponse::Json(200, profile->ToJson(top_n));
  }
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; charset=utf-8";
  response.body = profile->FoldedText();
  return response;
}

HttpResponse MatchService::HandleMetrics(const HttpRequest&) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = registry_->RenderPrometheus();
  return response;
}

HttpResponse MatchService::HandleReload(const HttpRequest& request) {
  std::string path;
  if (!util::Trim(request.body).empty()) {
    auto parsed = util::JsonParse(request.body);
    if (!parsed.ok() || !parsed->is_object()) {
      return ErrorResponse(400, "reload body must be a JSON object");
    }
    if (const util::JsonValue* p = parsed->Find("snapshot"); p != nullptr) {
      if (!p->is_string()) {
        return ErrorResponse(400, "'snapshot' must be a path string");
      }
      path = p->string_value();
    }
  }
  const std::shared_ptr<const EngineState> before = state();
  auto fresh = Reload(path);
  if (!fresh.ok()) {
    // The old snapshot keeps serving; the caller learns why the new one
    // was rejected.
    errors_->Inc();
    return ErrorResponse(fresh.status());
  }
  util::JsonWriter w;
  w.BeginObject()
      .Key("status").Value("ok")
      .Key("snapshot_version").Value((*fresh)->version)
      .Key("previous_version").Value(before == nullptr ? uint64_t{0}
                                                       : before->version)
      .Key("snapshot_path").Value((*fresh)->snapshot_path)
      .Key("scenario").Value((*fresh)->engine->meta().scenario)
      .Key("load_seconds").Value((*fresh)->load_seconds)
      .EndObject();
  return HttpResponse::Json(200, w.str());
}

}  // namespace http
}  // namespace serve
}  // namespace tdmatch
