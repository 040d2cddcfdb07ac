#include "match/top_k.h"

#include <algorithm>
#include <utility>

#include "embed/embedding_table.h"

namespace tdmatch {
namespace match {

namespace {

/// The ranking order: descending score, ties broken by lower index. As
/// the heap's less-than it puts the worst kept entry at the root.
bool RankBefore(const Match& a, const Match& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

}  // namespace

void TopKCollector::Insert(int32_t index, double score) {
  // A score tie with the root goes to the lower index.
  if (score == worst_score_ && index >= worst_index_) return;
  if (heap_.size() < k_) {
    heap_.push_back(Match{index, score});
    std::push_heap(heap_.begin(), heap_.end(), RankBefore);
    if (heap_.size() < k_) return;
  } else {
    // Replace the root and sift the new entry down past every child that
    // ranks after it.
    const Match m{index, score};
    const size_t n = heap_.size();
    size_t i = 0;
    for (size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && RankBefore(heap_[c], heap_[c + 1])) ++c;
      if (!RankBefore(m, heap_[c])) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = m;
  }
  worst_score_ = heap_.front().score;
  worst_index_ = heap_.front().index;
}

std::vector<Match> TopKCollector::Take() {
  std::sort_heap(heap_.begin(), heap_.end(), RankBefore);
  return std::move(heap_);
}

std::vector<double> TopK::ScoreAll(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& candidates) {
  std::vector<double> scores(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty() || query.empty()) continue;
    scores[i] = embed::EmbeddingTable::CosineVec(query, candidates[i]);
  }
  return scores;
}

std::vector<Match> TopK::Select(const std::vector<double>& scores, size_t k) {
  const double* s = scores.data();
  const size_t n = scores.size();
  TopKCollector top(std::min(k, n));
  for (size_t i = 0; i < n; ++i) top.Push(static_cast<int32_t>(i), s[i]);
  return top.Take();
}

std::vector<int32_t> TopK::FullRanking(const std::vector<double>& scores) {
  std::vector<int32_t> idx(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) idx[i] = static_cast<int32_t>(i);
  std::stable_sort(idx.begin(), idx.end(), [&](int32_t a, int32_t b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  return idx;
}

}  // namespace match
}  // namespace tdmatch
