// Shared helpers of the tdbench benchmark: clocks, order statistics, the
// span recorder behind the traced run, and the run's result accounting.
#ifndef TDBENCH_BENCH_UTIL_H_
#define TDBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdbench {

/// Seconds on the steady clock since an arbitrary process-local origin.
double NowSeconds();
/// CPU time (user + system) of the whole process, all threads, in seconds.
double ProcessCpuSeconds();
/// Sleeps until NowSeconds() >= t (no-op when t is already past).
void SleepUntil(double t);

/// Median of `v` (the mean of the two middle values for even sizes).
double Median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);
/// Number of values strictly above `threshold`.
size_t CountAbove(const std::vector<double>& v, double threshold);

/// \brief Span recorder for the traced run: every call into a layer is a
/// span (name, start, end, parent). Spans stay in memory and are written
/// once, at the end of the run. Single-threaded by design — the traced
/// run issues its calls one at a time so that spans nest.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  /// RAII span: opens on construction, closes on destruction or Close().
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Close();

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Self time of span i: its duration minus the union of its children's
  /// intervals (children never overlap each other in a sequential trace).
  double SelfSeconds(size_t i) const;
  /// Self times of every span named `name`, in recording order.
  std::vector<double> SelfSecondsOf(const std::string& name) const;
  /// Writes all spans as JSON lines (id, name, start_s, end_s, parent).
  bool Write(const std::string& path) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One metric of the final result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// \brief Operations a run attempted and how many of them failed, per kind
/// (build, request, reload, setup, check), plus the correctness verdict.
class RunLedger {
 public:
  void Attempt(const std::string& kind, uint64_t n = 1);
  void Fail(const std::string& kind, const std::string& why);
  /// A correctness check that did not hold. Counts against `correct`,
  /// not against `failed`: the operation itself completed.
  void CheckFailed(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) CheckFailed(what);
  }

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const;
  uint64_t failed() const;
  /// One "ops <kind>: attempted=N failed=M" line per kind.
  void PrintSummary() const;

 private:
  std::map<std::string, uint64_t> attempted_;
  std::map<std::string, uint64_t> failed_;
  uint64_t check_failures_ = 0;
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const RunLedger& ledger,
                 const std::map<std::string, Metric>& metrics);

}  // namespace tdbench

#endif  // TDBENCH_BENCH_UTIL_H_
