// The offline half of the benchmark: the IMDb data-to-text task through
// the full TDmatch pipeline to a written serving snapshot, untraced (one
// TDmatch::Run call) or traced (the same public calls, one span each).
#ifndef TDBENCH_PIPELINE_H_
#define TDBENCH_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tdmatch.h"
#include "datagen/generated.h"
#include "embed/embedding_table.h"
#include "embed/pretrained_lexicon.h"
#include "serve/snapshot.h"
#include "util/result.h"

namespace tdbench {

/// Labels of the two corpora's documents in the graph and the snapshot.
inline constexpr char kQueryPrefix[] = "__D0:";
inline constexpr char kCandidatePrefix[] = "__D1:";

/// The IMDb scenario (table + reviews, KB, synonym pairs, generic corpus)
/// for one benchmark seed.
tdmatch::datagen::GeneratedScenario MakeImdbInputs(uint64_t seed);

/// The set-up a build needs: the "pre-trained" lexicon and its calibrated
/// synonym threshold γ.
struct LexiconSetup {
  std::shared_ptr<tdmatch::embed::PretrainedLexicon> lexicon;
  double gamma = 0;
};
tdmatch::util::Result<LexiconSetup> TrainLexicon(
    const tdmatch::datagen::GeneratedScenario& data, size_t threads);

/// Pipeline configuration of build_imdb: synonym merge, KB expansion, MSP
/// compression, Skip-gram on random walks, embeddings exported.
tdmatch::core::TDmatchOptions PipelineOptions(double gamma, size_t threads);

struct BuildOutput {
  /// TDmatchResult::scores, [query][candidate].
  std::vector<std::vector<double>> scores;
  /// The exported document embeddings, as handed to the snapshot writer.
  tdmatch::embed::EmbeddingTable exported;
  /// The written snapshot file, byte for byte.
  std::string snapshot_bytes;
};

/// One untraced build: TDmatch::Run, then the serving index and snapshot
/// write (WriteServingSnapshot). `threads` drives every parallel stage.
tdmatch::util::Result<BuildOutput> BuildImdbSnapshot(
    const tdmatch::datagen::GeneratedScenario& data, const LexiconSetup& setup,
    size_t threads, const std::string& path);

/// The same build through the public calls TDmatch::Run makes, one traced
/// span per layer call. Adds the layers' counts (graph sizes, walk
/// tokens) and the trainer's CPU seconds to `counts`.
tdmatch::util::Result<BuildOutput> BuildImdbSnapshotTraced(
    const tdmatch::datagen::GeneratedScenario& data, const LexiconSetup& setup,
    size_t threads, const std::string& path, Tracer* tracer,
    std::map<std::string, double>* counts);

/// The serving half of a build, as `tdmatch_serve build-snapshot` does it:
/// QueryEngine over the candidate prefix (IVF k-means), its serialized
/// "ivfpq" section, and SnapshotIo::Write. `tracer` may be null.
tdmatch::util::Status WriteServingSnapshot(tdmatch::serve::Snapshot snapshot,
                                           size_t threads,
                                           const std::string& path,
                                           Tracer* tracer);

/// Whole-file read (for byte comparisons); empty on error.
std::string ReadFileBytes(const std::string& path);

/// Labels "__D<corpus>:<i>__".
std::string DocLabel(int corpus, size_t i);

}  // namespace tdbench

#endif  // TDBENCH_PIPELINE_H_
