#include "pipeline.h"

#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_set>

#include "datagen/imdb.h"
#include "embed/random_walk.h"
#include "embed/word2vec.h"
#include "graph/builder.h"
#include "graph/compression.h"
#include "graph/expansion.h"
#include "match/top_k.h"
#include "serve/query_engine.h"
#include "text/preprocess.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tdbench {

namespace core = tdmatch::core;
namespace datagen = tdmatch::datagen;
namespace embed = tdmatch::embed;
namespace graph = tdmatch::graph;
namespace serve = tdmatch::serve;
namespace util = tdmatch::util;

datagen::GeneratedScenario MakeImdbInputs(uint64_t seed) {
  datagen::ImdbOptions o;  // the generator's full size: 150 tuples
  o.seed = seed;
  return datagen::ImdbGenerator::Generate(o);
}

util::Result<LexiconSetup> TrainLexicon(const datagen::GeneratedScenario& data,
                                        size_t threads) {
  embed::PretrainedLexicon::Options o;
  o.w2v.threads = threads;
  o.w2v.epochs = 4;
  LexiconSetup out;
  out.lexicon = std::make_shared<embed::PretrainedLexicon>(o);
  TDM_RETURN_NOT_OK(out.lexicon->Train(data.generic_corpus));
  out.gamma = out.lexicon->CalibrateGamma(data.synonym_pairs);
  return out;
}

core::TDmatchOptions PipelineOptions(double gamma, size_t threads) {
  core::TDmatchOptions o;
  o.use_synonym_merge = true;
  o.gamma = gamma;
  o.expand = true;
  o.compression = core::CompressionMode::kMsp;
  o.compression_beta = 0.5;
  o.walks.num_walks = 25;
  o.walks.walk_length = 20;
  o.w2v.dim = 64;
  o.w2v.epochs = 3;
  o.w2v.subsample = 1e-3;
  o.builder.threads = threads;
  o.threads = threads;
  o.export_embeddings = true;
  return o;
}

std::string DocLabel(int corpus, size_t i) {
  return graph::GraphBuilder::MetaDocLabel(corpus, i);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

namespace {

/// Metadata of every snapshot the benchmark writes. Deliberately free of
/// timings (tdmatch_serve build-snapshot records phase seconds here), so
/// that two builds of the same inputs write byte-identical files.
serve::SnapshotMeta ImdbMeta(const datagen::GeneratedScenario& data, int dim) {
  serve::SnapshotMeta meta;
  meta.scenario = "IMDb";
  meta.Set("dim", std::to_string(dim));
  meta.Set("num_queries", std::to_string(data.scenario.first.NumDocs()));
  meta.Set("num_candidates", std::to_string(data.scenario.second.NumDocs()));
  meta.Set("query_prefix", kQueryPrefix);
  meta.Set("candidate_prefix", kCandidatePrefix);
  return meta;
}

util::Result<BuildOutput> FinishBuild(const datagen::GeneratedScenario& data,
                                      BuildOutput out, size_t threads,
                                      const std::string& path, Tracer* tracer) {
  serve::Snapshot snap;
  snap.meta = ImdbMeta(data, out.exported.dim());
  snap.table = out.exported;
  TDM_RETURN_NOT_OK(WriteServingSnapshot(std::move(snap), threads, path, tracer));
  out.snapshot_bytes = ReadFileBytes(path);
  if (out.snapshot_bytes.empty()) {
    return util::Status::Internal("cannot read back " + path);
  }
  return out;
}

/// Every distinct term of both corpora — the synonym-merge candidates, as
/// TDmatch::Run collects them.
std::vector<std::string> CollectTerms(const tdmatch::corpus::Corpus& a,
                                      const tdmatch::corpus::Corpus& b,
                                      const tdmatch::text::Preprocessor& pp) {
  std::unordered_set<std::string> seen;
  auto add_corpus = [&](const tdmatch::corpus::Corpus& c) {
    if (c.type() == tdmatch::corpus::CorpusType::kTable) {
      const tdmatch::corpus::Table& t = *c.table();
      for (size_t r = 0; r < t.NumRows(); ++r) {
        for (size_t col = 0; col < t.NumColumns(); ++col) {
          for (auto& term : pp.Terms(t.cell(r, col))) seen.insert(term);
        }
      }
    } else {
      for (size_t i = 0; i < c.NumDocs(); ++i) {
        for (auto& term : pp.Terms(c.DocText(i))) seen.insert(term);
      }
    }
  };
  add_corpus(a);
  add_corpus(b);
  return std::vector<std::string>(seen.begin(), seen.end());
}

}  // namespace

util::Status WriteServingSnapshot(serve::Snapshot snapshot, size_t threads,
                                  const std::string& path, Tracer* tracer) {
  const serve::SnapshotMeta meta = snapshot.meta;
  serve::QueryEngineOptions eopts;
  eopts.threads = threads;
  eopts.use_snapshot_index = false;  // the index is what this step produces
  std::unique_ptr<Tracer::Scope> span;
  if (tracer != nullptr) span = std::make_unique<Tracer::Scope>(tracer, "serve.index_build");
  auto qe = serve::QueryEngine::BuildForPrefix(std::move(snapshot),
                                               kCandidatePrefix, eopts);
  if (!qe.ok()) return qe.status();
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back(serve::QueryEngine::kIvfSectionTag,
                        qe->SerializeIvfSection());
  if (span) span->Close();
  if (tracer != nullptr) span = std::make_unique<Tracer::Scope>(tracer, "serve.snapshot_write");
  return serve::SnapshotIo::Write(qe->table(), meta, sections, path);
}

util::Result<BuildOutput> BuildImdbSnapshot(
    const datagen::GeneratedScenario& data, const LexiconSetup& setup,
    size_t threads, const std::string& path) {
  core::TDmatch engine(PipelineOptions(setup.gamma, threads), data.kb.get(),
                       setup.lexicon.get());
  TDM_ASSIGN_OR_RETURN(core::TDmatchResult run,
                       engine.Run(data.scenario.first, data.scenario.second));
  BuildOutput out;
  out.scores = std::move(run.scores);
  out.exported = std::move(run.embeddings);
  return FinishBuild(data, std::move(out), threads, path, nullptr);
}

util::Result<BuildOutput> BuildImdbSnapshotTraced(
    const datagen::GeneratedScenario& data, const LexiconSetup& setup,
    size_t threads, const std::string& path, Tracer* tracer,
    std::map<std::string, double>* counts) {
  const core::TDmatchOptions options = PipelineOptions(setup.gamma, threads);
  const tdmatch::corpus::Corpus& first = data.scenario.first;
  const tdmatch::corpus::Corpus& second = data.scenario.second;
  Tracer::Scope build_span(tracer, "build");
  BuildOutput out;

  graph::BuilderOptions builder_options = options.builder;
  tdmatch::text::Preprocessor pp(builder_options.preprocess);
  graph::MergeMap merge_map;
  {
    Tracer::Scope span(tracer, "embed.merge_map");
    merge_map = setup.lexicon->BuildMergeMap(CollectTerms(first, second, pp),
                                             options.gamma);
  }
  builder_options.merge_map = &merge_map;

  graph::Graph g;
  {
    Tracer::Scope span(tracer, "graph.build");
    TDM_ASSIGN_OR_RETURN(g, graph::GraphBuilder(builder_options).Build(first, second));
  }
  (*counts)["graph.nodes"] = static_cast<double>(g.NumNodes());
  (*counts)["graph.edges"] = static_cast<double>(g.NumEdges());
  {
    Tracer::Scope span(tracer, "graph.expand");
    auto normalize = [&pp](const std::string& raw) {
      return graph::GraphBuilder::NormalizeLabel(pp, raw);
    };
    g = graph::ExpandGraph(g, *data.kb, options.expansion, normalize);
  }
  (*counts)["graph.expanded_nodes"] = static_cast<double>(g.NumNodes());
  {
    Tracer::Scope span(tracer, "graph.compress");
    util::Rng rng(options.seed ^ 0xc0117);
    g = graph::MspCompress(g, options.compression_beta, &rng);
  }
  (*counts)["graph.compressed_nodes"] = static_cast<double>(g.NumNodes());
  (*counts)["graph.compressed_edges"] = static_cast<double>(g.NumEdges());

  embed::SentenceCorpus walks;
  {
    Tracer::Scope span(tracer, "embed.walks");
    g.Finalize();
    embed::RandomWalkOptions walk_options = options.walks;
    walk_options.seed ^= options.seed;
    walk_options.threads = threads;
    walks = embed::RandomWalker::GenerateCorpus(g, walk_options);
  }
  embed::Word2VecOptions w2v_options = options.w2v;
  w2v_options.seed ^= options.seed;
  w2v_options.threads = threads;
  embed::Word2Vec w2v(w2v_options);
  {
    const double cpu0 = ProcessCpuSeconds();
    Tracer::Scope span(tracer, "embed.train");
    TDM_RETURN_NOT_OK(w2v.Train(walks, g.NumNodes()));
    span.Close();
    (*counts)["embed.train_cpu_s"] = ProcessCpuSeconds() - cpu0;
  }
  {
    Tracer::Scope span(tracer, "match.score");
    auto doc_vector = [&](int corpus_idx, size_t doc) -> std::vector<float> {
      graph::NodeId id = g.FindNode(DocLabel(corpus_idx, doc));
      if (id == graph::kInvalidNode) return {};
      return w2v.VectorCopy(id);
    };
    std::vector<std::vector<float>> candidates(second.NumDocs());
    for (size_t c = 0; c < second.NumDocs(); ++c) candidates[c] = doc_vector(1, c);
    out.scores.resize(first.NumDocs());
    for (size_t q = 0; q < first.NumDocs(); ++q) {
      out.scores[q] = tdmatch::match::TopK::ScoreAll(doc_vector(0, q), candidates);
    }
  }
  {
    Tracer::Scope span(tracer, "embed.export");
    out.exported = embed::EmbeddingTable(w2v.dim());
    for (graph::NodeId id : g.MetadataDocNodes()) {
      out.exported.Put(g.node(id).label, w2v.VectorCopy(id));
    }
  }
  (*counts)["embed.walk_tokens"] = static_cast<double>(walks.NumTokens());
  (*counts)["embed.train_epochs"] = w2v_options.epochs;
  return FinishBuild(data, std::move(out), threads, path, tracer);
}

}  // namespace tdbench
