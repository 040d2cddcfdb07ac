#include "serve/admission.h"

namespace tdmatch {
namespace serve {

bool AdmissionController::TryAcquire() {
  size_t cur = inflight_.load(std::memory_order_relaxed);
  while (true) {
    if (cur >= options_.max_inflight) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // On CAS failure `cur` reloads the observed value and the capacity
    // check re-runs — a slot freed or taken between iterations is never
    // double-counted.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

int AdmissionController::RetryAfterSeconds(double typical_ms) const {
  const double backlog =
      static_cast<double>(inflight_.load(std::memory_order_relaxed));
  const double per_query_ms = typical_ms > 0.0 ? typical_ms : 1.0;
  const double seconds = backlog * per_query_ms / 1000.0;
  int s = static_cast<int>(seconds) + 1;  // round up, never 0
  if (s < options_.min_retry_after_s) s = options_.min_retry_after_s;
  if (s > options_.max_retry_after_s) s = options_.max_retry_after_s;
  return s;
}

}  // namespace serve
}  // namespace tdmatch
