#include "synthetic.h"

#include <cmath>
#include <string>

#include "pipeline.h"
#include "util/rng.h"

namespace tdbench {

namespace {

/// `base` plus a Gaussian offset of expected norm `scale`.
std::vector<float> Perturb(const float* base, int dim, double scale,
                           tdmatch::util::Rng* rng) {
  std::vector<float> v(static_cast<size_t>(dim));
  const double per_dim = scale / std::sqrt(static_cast<double>(dim));
  for (int i = 0; i < dim; ++i) {
    v[static_cast<size_t>(i)] =
        static_cast<float>(base[i] + per_dim * rng->Gaussian());
  }
  return v;
}

}  // namespace

SyntheticInputs MakeSyntheticInputs(const SyntheticSpec& spec, uint64_t seed) {
  tdmatch::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<float> origin(static_cast<size_t>(spec.dim), 0.0f);
  std::vector<std::vector<float>> centres;
  for (size_t c = 0; c < spec.clusters; ++c) {
    std::vector<float> v = Perturb(origin.data(), spec.dim, 1.0, &rng);
    double norm = 0;
    for (float x : v) norm += static_cast<double>(x) * x;
    for (float& x : v) x = static_cast<float>(x / std::sqrt(norm));
    centres.push_back(std::move(v));
  }

  SyntheticInputs out;
  out.snapshot.meta.scenario = "synthetic";
  out.snapshot.meta.Set("dim", std::to_string(spec.dim));
  out.snapshot.meta.Set("num_queries", std::to_string(spec.queries));
  out.snapshot.meta.Set("num_candidates", std::to_string(spec.candidates));
  out.snapshot.meta.Set("clusters", std::to_string(spec.clusters));
  out.snapshot.meta.Set("query_prefix", kQueryPrefix);
  out.snapshot.meta.Set("candidate_prefix", kCandidatePrefix);
  tdmatch::embed::EmbeddingTable& table = out.snapshot.table;
  table = tdmatch::embed::EmbeddingTable(spec.dim);
  std::vector<std::vector<float>> candidates;
  candidates.reserve(spec.candidates);
  for (size_t i = 0; i < spec.candidates; ++i) {
    const auto& centre = centres[rng.UniformInt(static_cast<uint64_t>(spec.clusters))];
    candidates.push_back(Perturb(centre.data(), spec.dim, spec.spread, &rng));
    table.Put(DocLabel(1, i), candidates.back());
  }
  for (size_t j = 0; j < spec.queries; ++j) {
    const auto g = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(spec.candidates)));
    out.gold.push_back(g);
    table.Put(DocLabel(0, j),
              Perturb(candidates[static_cast<size_t>(g)].data(), spec.dim,
                      spec.query_noise, &rng));
  }
  return out;
}

}  // namespace tdbench
