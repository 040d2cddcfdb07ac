#ifndef TDMATCH_UTIL_OBS_TRACE_H_
#define TDMATCH_UTIL_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.h"

namespace tdmatch {
namespace util {
namespace obs {

/// \brief One request's trace: an id plus a flat list of closed spans,
/// each stamped with its start offset, duration, and nesting depth.
///
/// A Trace is single-threaded by design (it belongs to one request on one
/// handler thread); it allocates one small vector and reads the steady
/// clock twice per span. Every entry point takes `Trace*` and tolerates
/// nullptr — an untraced request passes nullptr and pays exactly one
/// branch per would-be span.
class Trace {
 public:
  struct SpanRecord {
    const char* name;  // static-duration string literals only
    double start_ms;   // offset from trace start
    double ms;         // duration (0 until the span closes)
    int depth;         // 0 = top level
  };

  explicit Trace(std::string id) : id_(std::move(id)) {
    // A traced /v1/query records 6-8 spans; one upfront reservation keeps
    // the hot path free of vector regrowth.
    spans_.reserve(8);
  }

  /// RAII span: opens on construction, closes (records duration) on
  /// destruction or an explicit Close() — early returns are covered by
  /// the destructor. No-op when `trace` is null.
  class Span {
   public:
    Span(Trace* trace, const char* name)
        : trace_(trace),
          index_(trace != nullptr ? trace->OpenSpan(name) : 0) {}
    ~Span() { Close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void Close() {
      if (trace_ != nullptr) {
        trace_->CloseSpan(index_);
        trace_ = nullptr;
      }
    }

   private:
    Trace* trace_;
    size_t index_;
  };

  /// Records a span measured outside the trace (e.g. a duration a callee
  /// reports) at the current depth.
  void AddSpan(const char* name, double ms) {
    spans_.push_back(SpanRecord{name, watch_.ElapsedMillis() - ms, ms,
                                depth_});
  }

  /// Stops the trace clock; returns total ms (idempotent).
  double Finish() {
    if (!finished_) {
      total_ms_ = watch_.ElapsedMillis();
      finished_ = true;
    }
    return total_ms_;
  }

  const std::string& id() const { return id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  double total_ms() const { return total_ms_; }

 private:
  friend class Span;
  size_t OpenSpan(const char* name) {
    spans_.push_back(SpanRecord{name, watch_.ElapsedMillis(), 0.0, depth_});
    ++depth_;
    return spans_.size() - 1;
  }
  void CloseSpan(size_t index) {
    spans_[index].ms = watch_.ElapsedMillis() - spans_[index].start_ms;
    --depth_;
  }

  std::string id_;
  util::StopWatch watch_;
  std::vector<SpanRecord> spans_;
  int depth_ = 0;
  double total_ms_ = 0.0;
  bool finished_ = false;
};

/// \brief Deterministic every-Nth sampler: fraction 0 never samples,
/// >= 1 always, otherwise every round(1/fraction)-th call returns true.
/// One relaxed fetch_add per decision; safe from any thread.
class TraceSampler {
 public:
  explicit TraceSampler(double fraction);
  bool ShouldSample() {
    if (period_ == 0) return false;
    if (period_ == 1) return true;
    return n_.fetch_add(1, std::memory_order_relaxed) % period_ == 0;
  }
  bool always() const { return period_ == 1; }
  bool never() const { return period_ == 0; }

 private:
  uint64_t period_;
  std::atomic<uint64_t> n_{0};
};

/// Process-unique trace id: "t-" + 16 hex digits mixing a per-boot seed
/// with a monotone counter. Used when the client sent no X-Request-Id.
std::string GenerateTraceId();

}  // namespace obs
}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_OBS_TRACE_H_
