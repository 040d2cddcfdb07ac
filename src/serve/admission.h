#ifndef TDMATCH_SERVE_ADMISSION_H_
#define TDMATCH_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tdmatch {
namespace serve {

struct AdmissionOptions {
  /// Queries allowed in flight at once. Requests past the budget are shed
  /// with 429 + Retry-After instead of queueing — fail fast, never fall
  /// over. SIZE_MAX (the default) never sheds; 0 sheds everything (the
  /// drain/maintenance switch, and the capacity-0 edge the tests pin).
  size_t max_inflight = std::numeric_limits<size_t>::max();
  /// Retry-After clamp, in whole seconds (RFC 9110 delta-seconds).
  int min_retry_after_s = 1;
  int max_retry_after_s = 30;
};

/// \brief Lock-free in-flight admission gate for the serving front door.
///
/// TryAcquire is a CAS loop against max_inflight: it either takes a slot
/// (the caller must Release — use Ticket for RAII) or refuses without
/// blocking. Shed requests cost one atomic read-modify-write and an error
/// response; admitted work is never queued behind refused work, so an
/// overloaded server keeps its latency budget for the requests it accepts
/// and /v1/healthz stays green past saturation.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {})
      : options_(options) {}

  /// Takes an in-flight slot if one is free. Never blocks. A refusal
  /// advances the shed counter.
  bool TryAcquire();

  void Release() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }

  /// RAII slot: acquires on construction, releases on destruction when
  /// admitted. Move-only.
  class Ticket {
   public:
    explicit Ticket(AdmissionController* controller)
        : controller_(controller != nullptr && controller->TryAcquire()
                          ? controller
                          : nullptr) {}
    ~Ticket() {
      if (controller_ != nullptr) controller_->Release();
    }
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&&) = delete;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool admitted() const { return controller_ != nullptr; }

   private:
    AdmissionController* controller_;
  };

  /// Retry-After hint for a shed response: roughly how long the current
  /// in-flight backlog needs to drain at `typical_ms` per query, clamped
  /// to [min, max] whole seconds so the header is always well-formed.
  int RetryAfterSeconds(double typical_ms) const;

  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  bool unlimited() const {
    return options_.max_inflight == std::numeric_limits<size_t>::max();
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_ADMISSION_H_
