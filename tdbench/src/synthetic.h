// The serving workloads' input: a clustered synthetic embedding set large
// enough (100k candidates) for index effects to show, with a planted gold
// candidate per query document.
#ifndef TDBENCH_SYNTHETIC_H_
#define TDBENCH_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "serve/snapshot.h"

namespace tdbench {

struct SyntheticSpec {
  size_t candidates = 100000;
  size_t queries = 4096;
  int dim = 64;
  size_t clusters = 256;
  /// Norm of the per-candidate offset from its cluster centre (unit norm).
  double spread = 1.2;
  /// Norm of a query's offset from its gold candidate.
  double query_noise = 1.2;
};

struct SyntheticInputs {
  /// Candidates "__D1:<i>__" first, then queries "__D0:<j>__".
  tdmatch::serve::Snapshot snapshot;
  /// gold[j]: the candidate query j was drawn around.
  std::vector<int32_t> gold;
};

SyntheticInputs MakeSyntheticInputs(const SyntheticSpec& spec, uint64_t seed);

}  // namespace tdbench

#endif  // TDBENCH_SYNTHETIC_H_
