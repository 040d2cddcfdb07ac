#include "serving.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "pipeline.h"
#include "serve/http/client.h"
#include "util/json.h"
#include "util/rng.h"

namespace tdbench {

namespace http = tdmatch::serve::http;
namespace util = tdmatch::util;

namespace {

constexpr size_t kTopK = 5;
constexpr size_t kBatch = 16;
/// Connections of the closed loop, and of the open loop, which shares the
/// machine with one more for reloads: the load never holds more
/// connections than the 4 cores. Fewer closed-loop clients leave cores
/// idle between requests, and waking them makes capacity figures swing.
constexpr int kClosedClients = 4;
constexpr int kOpenSenders = 3;
/// Popularity of single-label queries, and the verification sample size.
constexpr double kZipfExponent = 1.0;
constexpr size_t kVerifyLabels = 256;
/// A served score may differ from the double-precision cosine by the
/// float rounding of a 64-term dot product, never more.
constexpr double kScoreTolerance = 2e-5;

void NormalizeInto(const float* row, int dim, std::vector<double>* out) {
  double norm = 0;
  for (int i = 0; i < dim; ++i) norm += static_cast<double>(row[i]) * row[i];
  norm = std::sqrt(norm);
  for (int i = 0; i < dim; ++i) {
    out->push_back(norm == 0 ? 0.0 : static_cast<double>(row[i]) / norm);
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Draws indices in [0, n) with Zipf(s) popularity (s = 0: uniform).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) {
    double sum = 0;
    for (size_t r = 1; r <= n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(double u) const {
    const auto i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Truth::Truth(const tdmatch::serve::SnapshotView& view) : dim_(view.dim()) {
  std::vector<float> row(static_cast<size_t>(dim_));
  for (size_t i = 0; i < view.size(); ++i) {
    const std::string_view label = view.label(i);
    view.CopyRow(i, row.data());
    if (StartsWith(label, kCandidatePrefix)) {
      cand_labels_.emplace_back(label);
      NormalizeInto(row.data(), dim_, &cand_);
    } else if (StartsWith(label, kQueryPrefix)) {
      query_labels_.emplace_back(label);
      NormalizeInto(row.data(), dim_, &queries_);
    }
  }
}

double Truth::Cosine(size_t q, size_t c) const {
  const double* a = queries_.data() + q * static_cast<size_t>(dim_);
  const double* b = cand_.data() + c * static_cast<size_t>(dim_);
  double dot = 0;
  for (int i = 0; i < dim_; ++i) dot += a[i] * b[i];
  return dot;
}

std::vector<int32_t> Truth::TopK(size_t q, size_t k) const {
  std::vector<std::pair<double, int32_t>> best;  // (score, id), worst first
  auto worse = [](const std::pair<double, int32_t>& a,
                  const std::pair<double, int32_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  for (size_t c = 0; c < num_candidates(); ++c) {
    std::pair<double, int32_t> item{Cosine(q, c), static_cast<int32_t>(c)};
    if (best.size() < k) {
      best.push_back(item);
      std::push_heap(best.begin(), best.end(), worse);
    } else if (worse(item, best.front())) {
      std::pop_heap(best.begin(), best.end(), worse);
      best.back() = item;
      std::push_heap(best.begin(), best.end(), worse);
    }
  }
  std::sort(best.begin(), best.end(), worse);
  std::vector<int32_t> ids;
  for (const auto& b : best) ids.push_back(b.second);
  return ids;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

bool ServerProcess::Start(const std::string& serve_bin,
                          const std::string& snapshot,
                          const std::string& log_path, double* setup_s) {
  const std::vector<std::string> args = {serve_bin, "serve", "--snapshot",
                                         snapshot, "--port", "0"};
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // Truncate before the fork, so that no line of an earlier server's log
  // is mistaken for this one's.
  if (std::FILE* f = std::fopen(log_path.c_str(), "w")) std::fclose(f);
  const double t0 = NowSeconds();
  pid_ = fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = open(log_path.c_str(), O_WRONLY | O_APPEND);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  // The tool logs one JSON "serve_start" line carrying the bound port.
  while (port_ == 0) {
    if (NowSeconds() - t0 > 60 || waitpid(pid_, nullptr, WNOHANG) != 0) {
      std::fprintf(stderr, "tdbench: server did not start, see %s\n",
                   log_path.c_str());
      return false;
    }
    const std::string log = ReadFileBytes(log_path);
    const size_t start = log.find("\"serve_start\"");
    const size_t key = start == std::string::npos ? start : log.find("\"port\":", start);
    if (key != std::string::npos && log.find('\n', key) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(log.c_str() + key + 7));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  for (;;) {
    auto client = http::HttpClient::Connect("127.0.0.1", port_);
    if (client.ok()) {
      auto r = client->Get("/v1/healthz");
      if (r.ok() && r->status == 200) break;
    }
    if (NowSeconds() - t0 > 60 || waitpid(pid_, nullptr, WNOHANG) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *setup_s = NowSeconds() - t0;
  return true;
}

void ServerProcess::Stop(double* peak_rss_mb) {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  rusage ru{};
  const pid_t r = wait4(pid_, &status, 0, &ru);
  pid_ = -1;
  if (r < 0) return;
  if (peak_rss_mb != nullptr) *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  // tdmatch_serve blocks SIGTERM only after its first worker threads exist,
  // so now and then the signal kills it instead of starting the drain. Not
  // a check: it fails only some of the time (see CHANGES.md).
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "tdbench: tdmatch_serve did not drain on SIGTERM (%s %d)\n",
                 WIFSIGNALED(status) ? "signal" : "exit code",
                 WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
  }
}

std::string QueryBody(const Truth& truth, const std::vector<int>& queries,
                      bool batch) {
  std::string body;
  if (batch) {
    body = "{\"labels\":[";
    for (size_t i = 0; i < queries.size(); ++i) {
      if (i > 0) body += ',';
      body += '"' + truth.query_label(static_cast<size_t>(queries[i])) + '"';
    }
    body += "],\"k\":5,\"mode\":\"exact\"}";
  } else {
    body = "{\"label\":\"" + truth.query_label(static_cast<size_t>(queries[0])) +
           "\",\"k\":5,\"mode\":\"approx\"}";
  }
  return body;
}

namespace {

/// One answered request, kept for the checks after the timed phase.
struct Reply {
  std::vector<int> queries;
  int connection = 0;
  std::string body;
};

/// One parsed top-k answer.
struct Answer {
  std::vector<int32_t> ids;
  std::vector<double> scores;
};

/// Checks one "matches" array against the truth for query q and returns
/// it parsed; every violation is a failed check.
Answer CheckMatches(const util::JsonValue* matches, const Truth& truth, int q,
                    RunLedger* ledger) {
  Answer a;
  const std::string& qlabel = truth.query_label(static_cast<size_t>(q));
  if (matches == nullptr || !matches->is_array()) {
    ledger->CheckFailed("no matches array for " + qlabel);
    return a;
  }
  const size_t want = std::min(kTopK, truth.num_candidates());
  ledger->Check(matches->items().size() == want, "wrong result count for " + qlabel);
  std::unordered_set<int32_t> seen;
  for (const auto& m : matches->items()) {
    const util::JsonValue* id = m.Find("candidate");
    const util::JsonValue* label = m.Find("label");
    const util::JsonValue* score = m.Find("score");
    if (id == nullptr || label == nullptr || score == nullptr) {
      ledger->CheckFailed("malformed match for " + qlabel);
      continue;
    }
    const double idv = id->number_value();
    if (idv < 0 || idv >= static_cast<double>(truth.num_candidates())) {
      ledger->CheckFailed("candidate id out of range for " + qlabel);
      continue;
    }
    const int32_t c = static_cast<int32_t>(idv);
    ledger->Check(label->string_value() == truth.candidate_label(static_cast<size_t>(c)),
                  "label does not match candidate id for " + qlabel);
    ledger->Check(seen.insert(c).second, "duplicate candidate for " + qlabel);
    const double want_score = truth.Cosine(static_cast<size_t>(q), static_cast<size_t>(c));
    ledger->Check(std::fabs(score->number_value() - want_score) <= kScoreTolerance,
                  "score is not the cosine of its id for " + qlabel);
    a.ids.push_back(c);
    a.scores.push_back(score->number_value());
  }
  for (size_t i = 1; i < a.ids.size(); ++i) {
    const bool ordered = a.scores[i - 1] > a.scores[i] ||
                         (a.scores[i - 1] == a.scores[i] && a.ids[i - 1] < a.ids[i]);
    ledger->Check(ordered, "results not sorted for " + qlabel);
  }
  return a;
}

/// Exact answers must be the brute-force top k; ids may differ only where
/// their true cosines tie within the tolerance.
void CheckExact(const Answer& a, const std::vector<int32_t>& top, const Truth& truth,
                int q, RunLedger* ledger) {
  if (a.ids.size() != top.size()) return;  // already counted
  for (size_t i = 0; i < top.size(); ++i) {
    if (a.ids[i] == top[i]) continue;
    const double served = truth.Cosine(static_cast<size_t>(q), static_cast<size_t>(a.ids[i]));
    const double best = truth.Cosine(static_cast<size_t>(q), static_cast<size_t>(top[i]));
    ledger->Check(std::fabs(served - best) <= kScoreTolerance,
                  "exact top-5 differs from brute force for " +
                      truth.query_label(static_cast<size_t>(q)));
  }
}

/// Parses a query response and checks every answer in it. Returns the
/// answers in request order (empty on a malformed body) and the
/// snapshot_version it was served from.
std::vector<Answer> CheckReply(const Reply& r, const Truth& truth, bool batch,
                               uint64_t* version, RunLedger* ledger) {
  std::vector<Answer> out;
  auto parsed = util::JsonParse(r.body);
  if (!parsed.ok() || !parsed->is_object()) {
    ledger->CheckFailed("unparseable query response");
    return out;
  }
  const util::JsonValue* v = parsed->Find("snapshot_version");
  *version = v != nullptr && v->is_number() ? static_cast<uint64_t>(v->number_value()) : 0;
  ledger->Check(*version >= 1, "response without snapshot_version");
  if (!batch) {
    const util::JsonValue* label = parsed->Find("label");
    ledger->Check(label != nullptr && label->string_value() ==
                      truth.query_label(static_cast<size_t>(r.queries[0])),
                  "response answers another label");
    out.push_back(CheckMatches(parsed->Find("matches"), truth, r.queries[0], ledger));
    return out;
  }
  const util::JsonValue* results = parsed->Find("results");
  if (results == nullptr || !results->is_array() ||
      results->items().size() != r.queries.size()) {
    ledger->CheckFailed("batch response has the wrong number of results");
    return out;
  }
  for (size_t i = 0; i < r.queries.size(); ++i) {
    const util::JsonValue& item = results->items()[i];
    const util::JsonValue* label = item.Find("label");
    ledger->Check(label != nullptr && label->string_value() ==
                      truth.query_label(static_cast<size_t>(r.queries[i])),
                  "batch result answers another label");
    out.push_back(CheckMatches(item.Find("matches"), truth, r.queries[i], ledger));
  }
  return out;
}

/// Checks every reply of a phase; snapshot versions must never go
/// backwards on a connection (each connection's requests are sequential).
void CheckReplies(const std::vector<Reply>& replies, const Truth& truth, bool batch,
                  RunLedger* ledger) {
  std::map<int, uint64_t> last_version;
  for (const Reply& r : replies) {
    uint64_t version = 0;
    CheckReply(r, truth, batch, &version, ledger);
    uint64_t& last = last_version[r.connection];
    ledger->Check(version >= last, "snapshot_version went backwards");
    last = std::max(last, version);
  }
}

bool Post(http::HttpClient* client, const std::string& target, const std::string& body,
          std::string* out, std::string* error) {
  auto r = client->Post(target, body);
  if (!r.ok()) {
    *error = r.status().ToString();
    return false;
  }
  if (r->status != 200) {
    *error = "HTTP " + std::to_string(r->status) + ": " + r->body;
    return false;
  }
  *out = std::move(r->body);
  return true;
}

/// Per-connection outcome of a load phase.
struct ConnLog {
  std::vector<Reply> replies;
  std::vector<double> latency_s;
  std::vector<double> late_s;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
};

/// Reloads of one phase. Each must publish exactly the next version.
struct ReloadLog {
  std::vector<double> seconds;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t version = 1;
  bool versions_ok = true;
};

/// The label draws of one request stream.
struct LabelDraw {
  const ZipfSampler* zipf;
  const std::vector<int>* rank_to_query;
  bool batch;
  std::vector<int> operator()(util::Rng* rng) const {
    std::vector<int> q;
    for (size_t i = 0; i < (batch ? kBatch : 1); ++i) {
      q.push_back((*rank_to_query)[zipf->Draw(rng->Uniform())]);
    }
    return q;
  }
};

/// Sends the request; on success records the reply and returns true.
bool Send(http::HttpClient* client, const Truth& truth, Reply* r, bool batch, ConnLog* log) {
  std::string error;
  ++log->attempted;
  if (Post(client, "/v1/query", QueryBody(truth, r->queries, batch), &r->body, &error)) {
    return true;
  }
  log->errors.push_back(error);
  return false;
}

/// A reload sample covers at least this much reloading: reloads repeat
/// back to back until it has passed, and the sample is their mean. A
/// snapshot that reloads in a millisecond would otherwise be timed one
/// millisecond-long event at a time.
constexpr double kReloadSampleSeconds = 0.05;

/// One reload sample at t0 + every, t0 + 2 * every, ... while before `end`.
std::thread StartReloads(uint16_t port, double t0, double end, double every, ReloadLog* log) {
  return std::thread([=] {
    auto client = http::HttpClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      ++log->attempted;
      log->errors.push_back(client.status().ToString());
      return;
    }
    for (int k = 1; t0 + k * every < end; ++k) {
      SleepUntil(t0 + k * every);
      const double s = NowSeconds();
      int done = 0;
      while (NowSeconds() - s < kReloadSampleSeconds) {
        std::string body, error;
        ++log->attempted;
        if (!Post(&*client, "/v1/reload", "", &body, &error)) {
          log->errors.push_back(error);
          break;
        }
        ++done;
        auto parsed = util::JsonParse(body);
        const util::JsonValue* v = parsed.ok() ? parsed->Find("snapshot_version") : nullptr;
        const uint64_t got = v != nullptr ? static_cast<uint64_t>(v->number_value()) : 0;
        log->versions_ok = log->versions_ok && got == log->version + 1;
        log->version = got;
      }
      if (done > 0) log->seconds.push_back((NowSeconds() - s) / done);
    }
  });
}

/// Closed loop: each of `clients` connections sends its next request when
/// the last one is answered, until `seconds` have passed.
std::vector<ConnLog> ClosedLoop(uint16_t port, const Truth& truth, const LabelDraw& draw,
                                int clients, double seconds, uint64_t seed, int conn_base) {
  std::vector<ConnLog> logs(static_cast<size_t>(clients));
  const double end = NowSeconds() + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[static_cast<size_t>(c)];
      util::Rng rng(seed * 131 + static_cast<uint64_t>(conn_base + c) + 1);
      auto client = http::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++log.attempted;
        log.errors.push_back(client.status().ToString());
        return;
      }
      while (NowSeconds() < end) {
        Reply r;
        r.queries = draw(&rng);
        r.connection = conn_base + c;
        const double s = NowSeconds();
        if (Send(&*client, truth, &r, draw.batch, &log)) {
          log.latency_s.push_back(NowSeconds() - s);
          log.replies.push_back(std::move(r));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Open loop: Poisson arrivals at `rate` on a schedule fixed in advance;
/// `senders` connections take the requests in due order. Each request is
/// timed from its due time, so a stall also delays the requests behind it.
std::vector<ConnLog> OpenLoop(uint16_t port, const Truth& truth, const LabelDraw& draw,
                              int senders, double rate, double t0, double seconds,
                              uint64_t seed, int conn_base) {
  std::vector<double> due;
  std::vector<std::vector<int>> due_queries;
  util::Rng rng(seed ^ 0x9e3779b9);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t0 + t);
    due_queries.push_back(draw(&rng));
  }
  std::vector<ConnLog> logs(static_cast<size_t>(senders));
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < senders; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[static_cast<size_t>(c)];
      auto client = http::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++log.attempted;
        log.errors.push_back(client.status().ToString());
        return;
      }
      for (size_t i = next++; i < due.size(); i = next++) {
        Reply r;
        r.queries = due_queries[i];
        r.connection = conn_base + c;
        SleepUntil(due[i]);
        const double sent = NowSeconds();
        if (Send(&*client, truth, &r, draw.batch, &log)) {
          log.latency_s.push_back(NowSeconds() - due[i]);
          log.late_s.push_back(sent - due[i]);
          log.replies.push_back(std::move(r));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Books a phase's requests in the ledger and collects its replies and
/// latencies (ms).
void Account(const std::vector<ConnLog>& logs, RunLedger* ledger, std::vector<Reply>* replies,
             std::vector<double>* latency_ms, std::vector<double>* late_ms) {
  for (const ConnLog& log : logs) {
    ledger->Attempt("request", log.attempted);
    for (const auto& e : log.errors) ledger->Fail("request", e);
    replies->insert(replies->end(), log.replies.begin(), log.replies.end());
    for (double x : log.latency_s) latency_ms->push_back(1e3 * x);
    for (double x : log.late_s) late_ms->push_back(1e3 * x);
  }
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The verification sample: distinct labels asked in exact mode (must be
/// the brute-force top 5) and in approx mode (recall against it).
void Verify(uint16_t port, const Truth& truth, uint64_t seed, ServeFigures* fig,
            RunLedger* ledger) {
  const size_t nq = truth.num_queries();
  std::vector<int> all(nq);
  for (size_t i = 0; i < nq; ++i) all[i] = static_cast<int>(i);
  util::Rng rng(seed ^ 0x51ed);
  rng.Shuffle(&all);
  fig->sample.assign(all.begin(), all.begin() + static_cast<long>(std::min(nq, kVerifyLabels)));
  fig->sample_top5.resize(fig->sample.size());
  {
    std::vector<std::thread> threads;
    const size_t workers = 4;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t i = w; i < fig->sample.size(); i += workers) {
          fig->sample_top5[i] = truth.TopK(static_cast<size_t>(fig->sample[i]), kTopK);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  auto client = http::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    ledger->Attempt("verify");
    ledger->Fail("verify", client.status().ToString());
    return;
  }
  double recall_sum = 0;
  for (size_t start = 0; start < fig->sample.size(); start += kBatch) {
    Reply r;
    for (size_t i = start; i < std::min(fig->sample.size(), start + kBatch); ++i) {
      r.queries.push_back(fig->sample[i]);
    }
    std::string error;
    ledger->Attempt("verify");
    if (!Post(&*client, "/v1/query", QueryBody(truth, r.queries, true), &r.body, &error)) {
      ledger->Fail("verify", error);
      continue;
    }
    uint64_t version = 0;
    const std::vector<Answer> answers = CheckReply(r, truth, true, &version, ledger);
    for (size_t i = 0; i < answers.size(); ++i) {
      CheckExact(answers[i], fig->sample_top5[start + i], truth, r.queries[i], ledger);
    }
  }
  for (size_t i = 0; i < fig->sample.size(); ++i) {
    Reply r;
    r.queries = {fig->sample[i]};
    std::string error;
    ledger->Attempt("verify");
    if (!Post(&*client, "/v1/query", QueryBody(truth, r.queries, false), &r.body, &error)) {
      ledger->Fail("verify", error);
      continue;
    }
    uint64_t version = 0;
    const std::vector<Answer> answers = CheckReply(r, truth, false, &version, ledger);
    if (answers.empty()) continue;
    size_t hit = 0;
    for (int32_t id : answers[0].ids) {
      hit += static_cast<size_t>(
          std::count(fig->sample_top5[i].begin(), fig->sample_top5[i].end(), id));
    }
    recall_sum += static_cast<double>(hit) / static_cast<double>(fig->sample_top5[i].size());
  }
  fig->recall_at_5 = recall_sum / static_cast<double>(std::max<size_t>(1, fig->sample.size()));
}

}  // namespace

ServeFigures RunTraffic(uint16_t port, const Truth& truth, const TrafficSpec& spec,
                        uint64_t seed, RunLedger* ledger) {
  ServeFigures fig;
  const size_t nq = truth.num_queries();
  const ZipfSampler zipf(nq, spec.batch ? 0.0 : kZipfExponent);
  std::vector<int> rank_to_query(nq);
  for (size_t i = 0; i < nq; ++i) rank_to_query[i] = static_cast<int>(i);
  util::Rng perm_rng(seed ^ 0x2f1b);
  perm_rng.Shuffle(&rank_to_query);
  const LabelDraw draw{&zipf, &rank_to_query, spec.batch};
  const size_t labels_per_request = spec.batch ? kBatch : 1;

  // Capacity: the closed loop's answered labels per second.
  std::vector<Reply> replies;
  std::vector<double> closed_ms, open_ms, late_ms;
  const double t_closed = NowSeconds();
  const std::vector<ConnLog> closed =
      ClosedLoop(port, truth, draw, kClosedClients, spec.closed_seconds, seed, 0);
  const double closed_elapsed = NowSeconds() - t_closed;
  Account(closed, ledger, &replies, &closed_ms, &late_ms);
  fig.qps = static_cast<double>(closed_ms.size() * labels_per_request) / closed_elapsed;

  // Reloads run beside the open loop, unless the workload gives them a
  // phase of their own beside one closed-loop client, whose requests are
  // checked but not timed; then its query figures carry no reload work.
  ReloadLog reloads;
  if (spec.open_seconds > 0) {
    const double t0 = NowSeconds() + 0.05;
    std::thread reloader;
    if (spec.reload_seconds == 0) {
      reloader = StartReloads(port, t0, t0 + spec.open_seconds, spec.reload_every_s, &reloads);
    }
    const std::vector<ConnLog> open = OpenLoop(port, truth, draw, kOpenSenders, spec.open_rate, t0,
                                               spec.open_seconds, seed, 100);
    if (reloader.joinable()) reloader.join();
    Account(open, ledger, &replies, &open_ms, &late_ms);
  }
  if (spec.reload_seconds > 0) {
    const double t0 = NowSeconds() + 0.05;
    std::thread reloader =
        StartReloads(port, t0, t0 + spec.reload_seconds, spec.reload_every_s, &reloads);
    SleepUntil(t0);
    const std::vector<ConnLog> beside =
        ClosedLoop(port, truth, draw, 1, spec.reload_seconds, seed, 200);
    reloader.join();
    std::vector<double> untimed_ms;
    Account(beside, ledger, &replies, &untimed_ms, &late_ms);
  }
  ledger->Attempt("reload", reloads.attempted);
  for (const auto& e : reloads.errors) ledger->Fail("reload", e);
  ledger->Check(reloads.versions_ok, "a reload did not publish the next snapshot version");

  fig.p50_ms = Percentile(closed_ms, 0.5);
  fig.reload_ms = Median(reloads.seconds) * 1e3;
  std::printf("closed loop: %d clients, %zu requests in %.2f s, %.0f labels/s, p50=%.3f ms "
              "p99=%.3f ms\n",
              kClosedClients, closed_ms.size(), closed_elapsed, fig.qps, fig.p50_ms,
              Percentile(closed_ms, 0.99));
  if (spec.open_seconds > 0) {
    fig.open_p50_ms = Percentile(open_ms, 0.5);
    fig.open_p99_ms = Percentile(open_ms, 0.99);
    ledger->Check(CountAbove(open_ms, fig.open_p99_ms) >= 10,
                  "fewer than 10 open-loop samples beyond p99");
    std::printf("open loop: %zu requests due at %.0f/s from %d connections, timed from due "
                "time: p50=%.3f ms p99=%.3f ms; generator lateness p50=%.3f ms p99=%.3f ms "
                "max=%.3f ms\n",
                open_ms.size(), spec.open_rate, kOpenSenders, fig.open_p50_ms, fig.open_p99_ms,
                Percentile(late_ms, 0.5), Percentile(late_ms, 0.99), Max(late_ms));
  }
  std::printf("reloads: %llu in %zu samples, median %.3f ms, max %.3f ms\n",
              static_cast<unsigned long long>(reloads.attempted), reloads.seconds.size(),
              fig.reload_ms, 1e3 * Max(reloads.seconds));
  {
    std::unordered_set<int> seen;
    size_t total = 0, repeated = 0;
    for (const Reply& r : replies) {
      for (int q : r.queries) {
        ++total;
        if (!seen.insert(q).second) ++repeated;
      }
    }
    std::printf("labels: %zu requested, %.1f%% repeat an earlier label\n", total,
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(repeated) / static_cast<double>(total));
  }
  CheckReplies(replies, truth, spec.batch, ledger);
  Verify(port, truth, seed, &fig, ledger);
  return fig;
}

}  // namespace tdbench
