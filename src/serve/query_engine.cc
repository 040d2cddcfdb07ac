#include "serve/query_engine.h"

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/crc32.h"
#include "util/obs/jsonlog.h"
#include "util/string_util.h"

namespace tdmatch {
namespace serve {

constexpr char QueryEngine::kIvfSectionTag[];

uint32_t QueryEngine::candidate_labels_crc() const {
  uint32_t crc = 0;
  for (const auto& label : candidate_labels_) {
    crc = util::Crc32(label.data(), label.size(), crc);
    crc = util::Crc32("\0", 1, crc);  // unambiguous label boundaries
  }
  return crc;
}

std::string QueryEngine::SerializeIvfSection() const {
  if (ivf_ == nullptr) return {};
  return ivf_->Serialize(candidate_labels_crc());
}

util::Result<QueryEngine> QueryEngine::BuildFromView(
    std::shared_ptr<const SnapshotView> view, const std::string& prefix,
    QueryEngineOptions options) {
  if (view == nullptr) {
    return util::Status::InvalidArgument("snapshot view is null");
  }
  QueryEngine engine;
  std::vector<size_t> candidate_rows;
  for (size_t i = 0; i < view->size(); ++i) {
    const std::string_view label = view->label(i);
    if (!util::StartsWith(label, prefix)) continue;
    engine.candidate_index_.emplace(
        std::string(label), static_cast<int32_t>(candidate_rows.size()));
    engine.candidate_labels_.emplace_back(label);
    candidate_rows.push_back(i);
  }
  if (candidate_rows.empty()) {
    return util::Status::NotFound(util::StrFormat(
        "snapshot '%s' has no labels with candidate prefix '%s'",
        view->meta().scenario.c_str(), prefix.c_str()));
  }
  // The candidate vectors are gathered straight from the mapped payload —
  // the only copy is the (necessary) normalized index matrix; no
  // EmbeddingTable is ever materialized.
  engine.matrix_ = std::make_shared<VectorMatrix>(VectorMatrix::FromRawRows(
      view->payload(), candidate_rows, view->dim()));
  engine.snapshot_.meta = view->meta();
  engine.snapshot_.table = embed::EmbeddingTable(view->dim());
  engine.view_ = std::move(view);
  TDM_RETURN_NOT_OK(engine.FinishBuild(options));
  return engine;
}

util::Status QueryEngine::FinishBuild(QueryEngineOptions options) {
  options_ = options;
  exact_ = std::make_unique<ExactIndex>(matrix_);
  if (options.build_ivf) {
    IvfOptions ivf = options.ivf;
    ivf.threads = options.threads;
    // A snapshot may carry the trained index as an "ivfpq" section;
    // adopting it skips k-means at startup. The section's candidate
    // fingerprint and geometry are validated against what this engine
    // actually resolved — on any mismatch we train instead (slower, never
    // wrong).
    if (options.use_snapshot_index) {
      std::string_view bytes;
      if (const std::string* s = snapshot_.Section(kIvfSectionTag)) {
        bytes = *s;
      } else if (view_ != nullptr) {
        if (const std::string_view* s = view_->Section(kIvfSectionTag)) {
          bytes = *s;
        }
      }
      if (!bytes.empty()) {
        auto loaded = IvfIndex::Deserialize(bytes, matrix_,
                                            candidate_labels_crc(), ivf);
        if (loaded.ok()) {
          ivf_ = std::move(loaded).ValueOrDie();
          ivf_from_snapshot_ = true;
        } else {
          util::obs::JsonLogger::Global()
              .Log(util::obs::LogLevel::kWarn, "ivf_section_ignored")
              .Str("reason", loaded.status().ToString());
        }
      }
    }
    if (ivf_ == nullptr) ivf_ = std::make_unique<IvfIndex>(matrix_, ivf);
  }
  if (options.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options.threads);
  }
  return util::Status::OK();
}

util::Result<QueryEngine> QueryEngine::BuildForPrefix(
    Snapshot snapshot, const std::string& prefix,
    QueryEngineOptions options) {
  QueryEngine engine;
  std::vector<const std::vector<float>*> rows;
  for (auto& label : snapshot.table.Labels()) {
    if (!util::StartsWith(label, prefix)) continue;
    engine.candidate_index_.emplace(label,
                                    static_cast<int32_t>(rows.size()));
    rows.push_back(snapshot.table.Get(label));
    engine.candidate_labels_.push_back(std::move(label));
  }
  if (rows.empty()) {
    return util::Status::NotFound(util::StrFormat(
        "snapshot '%s' has no labels with candidate prefix '%s'",
        snapshot.meta.scenario.c_str(), prefix.c_str()));
  }
  engine.matrix_ = std::make_shared<VectorMatrix>(
      VectorMatrix::FromRows(rows, snapshot.table.dim()));
  engine.snapshot_ = std::move(snapshot);
  TDM_RETURN_NOT_OK(engine.FinishBuild(options));
  return engine;
}

std::vector<ScoredMatch> QueryEngine::ToScored(
    const std::vector<match::Match>& matches) const {
  std::vector<ScoredMatch> out;
  out.reserve(matches.size());
  for (const auto& m : matches) {
    out.push_back(ScoredMatch{
        candidate_labels_[static_cast<size_t>(m.index)], m.index, m.score});
  }
  return out;
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryVector(
    const std::vector<float>& vec, size_t k, SearchMode mode) const {
  if (vec.size() != static_cast<size_t>(dim())) {
    return util::Status::InvalidArgument(
        util::StrFormat("query vector has dim %zu, snapshot dim is %d",
                        vec.size(), dim()));
  }
  for (const float x : vec) {
    // Overflowing components (|x| >= ~3.4e38 arrives as inf) would
    // normalize the query to NaN.
    if (!std::isfinite(x)) {
      return util::Status::InvalidArgument(
          "query vector has a non-finite component");
    }
  }
  if (k == 0) k = options_.default_k;
  return SearchNormalized(vec.data(), k, mode);
}

const float* QueryEngine::LookupVector(const std::string& label,
                                       std::vector<float>* scratch) const {
  if (view_ != nullptr) {
    const int64_t row = view_->FindRow(label);
    if (row < 0) return nullptr;
    if (view_->aligned()) return view_->row(static_cast<size_t>(row));
    scratch->resize(static_cast<size_t>(view_->dim()));
    view_->CopyRow(static_cast<size_t>(row), scratch->data());
    return scratch->data();
  }
  const std::vector<float>* vec = snapshot_.table.Get(label);
  return vec == nullptr ? nullptr : vec->data();
}

std::vector<ScoredMatch> QueryEngine::SearchNormalized(
    const float* vec, size_t k, SearchMode mode,
    const std::vector<char>* allowed) const {
  // One copy total (the normalization scratch) — the same cost the
  // pre-mmap code paid through Index::SearchVec.
  std::vector<float> q(vec, vec + static_cast<size_t>(matrix_->dim()));
  NormalizeSlice(q.data(), matrix_->dim());
  if (mode == SearchMode::kApprox && ivf_ != nullptr) {
    return ToScored(ivf_->Search(q.data(), k));
  }
  return ToScored(exact_->Search(q.data(), k, allowed));
}

util::Result<std::vector<ScoredMatch>> QueryEngine::Query(
    const std::string& label, size_t k, SearchMode mode) const {
  std::vector<float> scratch;
  const float* vec = LookupVector(label, &scratch);
  if (vec == nullptr) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  if (k == 0) k = options_.default_k;
  return SearchNormalized(vec, k, mode);
}

size_t QueryEngine::BuildMask(const std::vector<std::string>& allowed,
                              std::vector<char>* mask) const {
  mask->assign(candidate_labels_.size(), 0);
  size_t block_size = 0;
  for (const auto& a : allowed) {
    auto it = candidate_index_.find(a);
    if (it == candidate_index_.end()) continue;  // not a candidate: ignore
    if ((*mask)[static_cast<size_t>(it->second)] == 0) ++block_size;
    (*mask)[static_cast<size_t>(it->second)] = 1;
  }
  return block_size;
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryFiltered(
    const std::string& label, const std::vector<std::string>& allowed,
    size_t k) const {
  std::vector<float> scratch;
  const float* vec = LookupVector(label, &scratch);
  if (vec == nullptr) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  std::vector<char> mask;
  if (BuildMask(allowed, &mask) == 0) return std::vector<ScoredMatch>{};
  if (k == 0) k = options_.default_k;
  // Always the exact index, the only one that takes a mask: the IVF scan
  // only sees the nprobe probed cells, so a small allowed set (the blocker regime this API exists
  // for) could be missed entirely — and a blocked scan is O(|block|)
  // cheap anyway.
  return SearchNormalized(vec, k, SearchMode::kExact, &mask);
}

std::vector<util::Result<std::vector<ScoredMatch>>> QueryEngine::QueryBatch(
    const std::vector<std::string>& labels, size_t k,
    SearchMode mode) const {
  // Pre-size with per-slot placeholders, then let the shards overwrite
  // their ranges: no locking on the result vector, and the output order
  // never depends on the thread count.
  const size_t n = labels.size();
  std::vector<util::Result<std::vector<ScoredMatch>>> results(
      n, util::Status::Internal("query not executed"));
  const size_t shards = std::min(options_.threads, n);
  if (pool_ == nullptr || shards <= 1) {
    for (size_t i = 0; i < n; ++i) {
      results[i] = Query(labels[i], k, mode);
    }
    return results;
  }

  // Contiguous chunks on the persistent pool; this batch tracks its own
  // completion so concurrent batches never wait on each other's tasks.
  // The decrement happens under the mutex: the caller can only observe
  // remaining == 0 after the finishing worker has released the lock, so
  // the stack-local sync state cannot be destroyed under a worker.
  std::vector<std::pair<size_t, size_t>> ranges;
  const size_t chunk = (n + shards - 1) / shards;
  for (size_t begin = 0; begin < n; begin += chunk) {
    ranges.emplace_back(begin, std::min(n, begin + chunk));
  }
  size_t remaining = ranges.size();
  std::mutex mu;
  std::condition_variable done;
  for (const auto& range : ranges) {
    pool_->Submit([this, &labels, &results, &remaining, &mu, &done, range,
                   k, mode] {
      for (size_t i = range.first; i < range.second; ++i) {
        results[i] = Query(labels[i], k, mode);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&remaining] { return remaining == 0; });
  return results;
}

}  // namespace serve
}  // namespace tdmatch
