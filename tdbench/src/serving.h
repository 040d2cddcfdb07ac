// The online half of the benchmark: a tdmatch_serve process over a
// snapshot, the HTTP load that drives it, and the checks of its answers
// against the benchmark's own brute-force cosine ranking.
#ifndef TDBENCH_SERVING_H_
#define TDBENCH_SERVING_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/mmap_snapshot.h"

namespace tdbench {

/// \brief The benchmark's independent view of a snapshot's vectors:
/// candidates in snapshot order (= the engine's candidate ids) and query
/// documents, L2-normalized in double precision.
class Truth {
 public:
  explicit Truth(const tdmatch::serve::SnapshotView& view);

  size_t num_candidates() const { return cand_labels_.size(); }
  size_t num_queries() const { return query_labels_.size(); }
  const std::string& candidate_label(size_t c) const { return cand_labels_[c]; }
  const std::string& query_label(size_t q) const { return query_labels_[q]; }
  /// Cosine of query q and candidate c, in double precision.
  double Cosine(size_t q, size_t c) const;
  /// Candidate ids by descending cosine (ties: lower id first), top k.
  std::vector<int32_t> TopK(size_t q, size_t k) const;

 private:
  int dim_ = 0;
  std::vector<std::string> cand_labels_;
  std::vector<std::string> query_labels_;
  std::vector<double> cand_;
  std::vector<double> queries_;
};

/// \brief A `tdmatch_serve serve` child process with the tool's defaults,
/// on an ephemeral loopback port. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its first 200 on /v1/healthz.
  /// `setup_s` receives the time from spawn to that answer.
  bool Start(const std::string& serve_bin, const std::string& snapshot,
             const std::string& log_path, double* setup_s);
  /// SIGTERM (the tool drains and exits 0), then reaps. `peak_rss_mb`
  /// receives the child's peak resident set (getrusage ru_maxrss).
  void Stop(double* peak_rss_mb);
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Traffic of one serving workload. Closed and open loops use 3
/// connections each; reloads come from one more.
struct TrafficSpec {
  /// 16-label exact batches with uniform labels; otherwise single-label
  /// approx queries with Zipf(1.0) label popularity.
  bool batch = false;
  /// Closed-loop capacity phase.
  double closed_seconds = 0;
  /// Open-loop phase of Poisson arrivals at `open_rate` requests/s (none
  /// when open_seconds is 0).
  double open_seconds = 0;
  double open_rate = 0;
  /// A POST /v1/reload sample every `reload_every_s`: beside the open loop
  /// when reload_seconds is 0, else in a phase of `reload_seconds` of
  /// their own beside one closed-loop client.
  double reload_every_s = 0;
  double reload_seconds = 0;
};

/// End-to-end serving figures of one run.
struct ServeFigures {
  /// Closed loop: answered labels per second, median request latency.
  double qps = 0;
  double p50_ms = 0;
  /// Open loop (0 without one): latency from due time.
  double open_p50_ms = 0;
  double open_p99_ms = 0;
  /// Median reload sample.
  double reload_ms = 0;
  double recall_at_5 = 0;
  /// The verification sample (query indices) and, for each, the
  /// brute-force top 5 candidate ids.
  std::vector<int> sample;
  std::vector<std::vector<int32_t>> sample_top5;
};

/// Runs the workload's phases and the verification sample against a
/// running server; checks every answer against `truth`.
ServeFigures RunTraffic(uint16_t port, const Truth& truth,
                        const TrafficSpec& spec, uint64_t seed,
                        RunLedger* ledger);

/// JSON body of one query request for the given query indices.
std::string QueryBody(const Truth& truth, const std::vector<int>& queries,
                      bool batch);

}  // namespace tdbench

#endif  // TDBENCH_SERVING_H_
