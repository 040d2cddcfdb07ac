#ifndef TDMATCH_SERVE_INDEX_H_
#define TDMATCH_SERVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "match/top_k.h"

namespace tdmatch {
namespace serve {

/// L2-normalizes a raw `dim`-sized slice in place (zero vectors stay
/// zero) — the pointer-level counterpart of EmbeddingTable::Normalize,
/// shared by the serving matrix and the IVF centroid update.
void NormalizeSlice(float* row, int dim);

/// \brief Immutable row-major matrix of L2-normalized vectors — the shared
/// storage behind every serving index.
///
/// Normalizing once at build time turns cosine similarity into a plain dot
/// product on the query path, and one flat allocation keeps the scan loops
/// on contiguous memory. Candidate ids are row indices; the caller owns
/// the id → label mapping (see QueryEngine).
class VectorMatrix {
 public:
  VectorMatrix() = default;

  /// Copies and L2-normalizes the rows (zero vectors stay zero). Every row
  /// must have `dim` entries.
  static VectorMatrix FromRows(
      const std::vector<const std::vector<float>*>& rows, int dim);

  /// Same, gathering from a raw row-major f32 payload (`payload` holds
  /// rows of `dim` floats; `rows[i]` is the source row index of output row
  /// i). Rows are memcpy'd, so the payload may be unaligned — this is the
  /// bridge from a zero-copy SnapshotView into the (necessarily copying,
  /// because normalizing) index matrix.
  static VectorMatrix FromRawRows(const char* payload,
                                  const std::vector<size_t>& rows, int dim);

  const float* row(size_t i) const {
    return data_.data() + i * static_cast<size_t>(dim_);
  }
  size_t size() const { return n_; }
  int dim() const { return dim_; }

  /// Dot product of a `dim()`-sized query against row i.
  float Dot(const float* query, size_t i) const;

 private:
  std::vector<float> data_;
  size_t n_ = 0;
  int dim_ = 0;
};

/// \brief Top-k retrieval over a fixed candidate set — the serving-side
/// contract. Implementations: ExactIndex (brute force, the correctness
/// reference) and IvfIndex (approximate, the latency play).
///
/// Queries are raw `dim()`-sized float vectors; they are L2-normalized by
/// the caller-facing Search wrapper so scores are cosines. Every scan
/// pushes its (id, score) pairs into one match::TopKCollector, so all
/// implementations rank by the same order — score desc, id asc — whatever
/// order they visit candidates in. All implementations are immutable
/// after construction and safe for concurrent Search calls.
class Index {
 public:
  virtual ~Index() = default;

  /// "exact" / "ivf" / "ivf_pq".
  virtual std::string name() const = 0;
  virtual size_t size() const = 0;
  virtual int dim() const = 0;

  /// Bytes of auxiliary structure the index owns on top of the shared
  /// candidate matrix (bench/serve_qps reports it; check_bench gates its
  /// growth). ExactIndex owns nothing beyond the matrix, hence 0.
  virtual size_t MemoryBytes() const { return 0; }

  /// Top-k candidates by cosine, best first, ties broken by lower id.
  /// `query` must already be L2-normalized (see SearchVec).
  virtual std::vector<match::Match> Search(const float* query,
                                           size_t k) const = 0;

  /// Convenience wrapper: normalizes a copy of `query` and searches.
  std::vector<match::Match> SearchVec(const std::vector<float>& query,
                                      size_t k) const;
};

/// \brief Brute-force scan over the full candidate matrix. O(n · dim) per
/// query: the baseline every approximate index must beat, and the exact
/// reference recall is measured against.
class ExactIndex : public Index {
 public:
  explicit ExactIndex(std::shared_ptr<const VectorMatrix> data)
      : data_(std::move(data)) {}

  std::string name() const override { return "exact"; }
  size_t size() const override { return data_->size(); }
  int dim() const override { return data_->dim(); }

  std::vector<match::Match> Search(const float* query,
                                   size_t k) const override {
    return Search(query, k, nullptr);
  }

  /// The same scan restricted to candidate ids with allowed[id] != 0 (all
  /// ids when null) — the hook for blocking-aware filtered queries.
  std::vector<match::Match> Search(const float* query, size_t k,
                                   const std::vector<char>* allowed) const;

 private:
  std::shared_ptr<const VectorMatrix> data_;
};

/// Fraction of `exact`'s top-k ids that `approx` also returns, averaged
/// over the query set — the standard ANN recall@k measurement.
double MeasureRecallAtK(const Index& approx, const Index& exact,
                        const std::vector<std::vector<float>>& queries,
                        size_t k);

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_INDEX_H_
