#ifndef TDMATCH_MATCH_TOP_K_H_
#define TDMATCH_MATCH_TOP_K_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tdmatch {
namespace match {

/// One ranked candidate.
struct Match {
  int32_t index;
  double score;
};

/// \brief Streaming bounded top-k (§IV-B): the one ranking decision every
/// selection in the library goes through.
///
/// The ranking order is descending score, ties broken by lower index. It
/// is a strict total order over (score, index) pairs with unique indices,
/// so the kept set and its order never depend on the order of the Push
/// calls: a scan may visit candidates in any order (IVF probes cells by
/// centroid score) and still rank exactly like a scan in index order.
///
/// A max-heap of the k best seen so far has the *worst* kept entry at its
/// root; that entry's (score, index) is cached, so a candidate that does
/// not make the cut — the common case once the heap is full — is rejected
/// inline by one comparison against the cached score; ties on the score
/// are settled out of line. NaN scores are never kept (they would break
/// the order).
class TopKCollector {
 public:
  /// Keeps at most `k` entries; reserves `k` slots, so callers clamp k to
  /// the number of candidates they can push.
  explicit TopKCollector(size_t k) : k_(k) {
    heap_.reserve(k);
    if (k == 0) {  // nothing passes
      worst_score_ = std::numeric_limits<double>::infinity();
      worst_index_ = std::numeric_limits<int32_t>::min();
    }
  }

  void Push(int32_t index, double score) {
    // Marked unlikely so the reject falls through: a scan loop then takes
    // one branch per candidate (its back edge), not two.
    if (__builtin_expect(score >= worst_score_, 0)) Insert(index, score);
  }

  /// The kept entries, best first. Ends the collector's use.
  std::vector<Match> Take();

 private:
  void Insert(int32_t index, double score);

  size_t k_;
  std::vector<Match> heap_;
  /// The root's key once the heap is full; until then a key that every
  /// non-NaN score beats.
  double worst_score_ = -std::numeric_limits<double>::infinity();
  int32_t worst_index_ = std::numeric_limits<int32_t>::max();
};

/// \brief Ranking utilities over dense score vectors: cosine scoring
/// against a candidate matrix and top-k selection.
class TopK {
 public:
  /// Cosine of `query` against every row of `candidates` (rows may be
  /// empty ⇒ score 0).
  static std::vector<double> ScoreAll(
      const std::vector<float>& query,
      const std::vector<std::vector<float>>& candidates);

  /// Indices of the k highest scores, ties broken by lower index
  /// (deterministic): TopKCollector over the scores in index order.
  static std::vector<Match> Select(const std::vector<double>& scores,
                                   size_t k);

  /// Full ranking (Select with k = scores.size()).
  static std::vector<int32_t> FullRanking(const std::vector<double>& scores);
};

}  // namespace match
}  // namespace tdmatch

#endif  // TDMATCH_MATCH_TOP_K_H_
