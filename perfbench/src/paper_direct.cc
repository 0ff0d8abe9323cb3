// paper_direct: the paper's Section 4 protocol through the library's
// direct API. One caller, closed loop, threads=1, file backend, raw
// pages. Every round runs the twenty tag joins (B1-B10 on an XMark-like
// document, D1-D10 on a DBLP-like one) under each registry algorithm in
// a seeded shuffled order, each as a cold-pool RunJoin at the paper's
// buffer-to-data ratio; missing sorted copies and indexes are built on
// the fly and charged to the join.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "framework/cost_model.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "pbitree/binarize.h"
#include "storage/segment_store.h"
#include "workloads.h"
#include "xml/data_tree.h"

namespace perfbench {
namespace {

using namespace pbitree;

// Pool of the loading pass; the joins run on a reopened, smaller pool.
constexpr size_t kBuildPoolPages = 4096;

struct Doc {
  std::string name;
  std::vector<TagJoinSpec> joins;
  size_t work_pages = 16;
  std::string path;
  std::unique_ptr<SegmentStore> store;
  std::map<std::string, ElementSet> sets;
};

struct Query {
  size_t doc = 0;
  size_t join = 0;
  Algorithm alg = Algorithm::kShcj;
};

class PaperDirect : public Workload {
 public:
  explicit PaperDirect(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {
    xmark_sf_ = 0.2 * cfg.scale;
    dblp_pubs_ = std::max<uint64_t>(
        200, static_cast<uint64_t>(60000 * cfg.scale));
    docs_[0].name = "xmark";
    docs_[0].joins = XmarkJoins();
    // The paper's buffer: 500 pages per SF=1 document (125 of our denser
    // pages), the same ratio as the fig6c/fig6d benches.
    docs_[0].work_pages =
        std::max<size_t>(16, static_cast<size_t>(125 * xmark_sf_));
    docs_[1].name = "dblp";
    docs_[1].joins = DblpJoins();
    docs_[1].work_pages = std::max<size_t>(
        16, static_cast<size_t>(125 * static_cast<double>(dblp_pubs_) / 3e5));
  }

  Status Setup(const std::string& dir, Tracer* tracer) override {
    PBITREE_RETURN_IF_ERROR(Teardown());
    for (size_t i = 0; i < 2; ++i) {
      PBITREE_RETURN_IF_ERROR(BuildDoc(i, dir, tracer));
    }
    if (queries_.empty()) BuildQueryList();
    return Status::OK();
  }

  Status Measure(double seconds, Tracer* tracer, PhaseResult* out) override {
    double predicted = 0.0;
    RoundQueries rounds;
    rounds.count = queries_.size();
    rounds.plan = [&](size_t i) {
      InputProperties pa, pd;
      pa.sorted = A(queries_[i]).sorted_by_start;
      pd.sorted = D(queries_[i]).sorted_by_start;
      return ChooseAlgorithm(pa, pd, A(queries_[i]).SingleHeight());
    };
    rounds.run = [&](size_t i, uint64_t qid, Tracer* t, ResultSink* sink) {
      const Query& q = queries_[i];
      Doc& doc = docs_[q.doc];
      RunOptions opts;
      opts.work_pages = doc.work_pages;
      opts.threads = 1;
      opts.cold_cache = true;
      Tracer::Span span(t, "RunJoin", qid);
      return RunJoin(q.alg, doc.store->main_bm(), A(q), D(q), sink, opts);
    };
    rounds.done = [&](size_t i, uint64_t qid, Tracer* t,
                      const PairDigest& digest) {
      const Query& q = queries_[i];
      CheckDigest(q, digest);
      Tracer::Span span(t, "EstimateJoinIO", qid);
      predicted += static_cast<double>(EstimateJoinIO(
          q.alg, CostInputs::FromSets(A(q), D(q), docs_[q.doc].work_pages)));
    };
    rounds.name = [&](size_t i) {
      const Query& q = queries_[i];
      return docs_[q.doc].joins[q.join].name + " " + AlgorithmName(q.alg);
    };
    RunRounds(seconds, rounds, &rng_, tracer, out);
    out->bytes_per_element = BytesPerElement();

    char base[96];
    std::snprintf(base, sizeof(base), "predicted=%.0f counted=%llu", predicted,
                  static_cast<unsigned long long>(out->pages));
    out->layer.Add("framework.predicted_io_ratio",
                   Ratio(predicted, static_cast<double>(out->pages)), "ratio",
                   base);
    return Status::OK();
  }

  Status Verify(Report*) override {
    if (!mismatch_.empty()) return Status::Corruption(mismatch_);
    // Every (join, algorithm) pair must have run and agreed.
    for (const Query& q : queries_) {
      const std::string key =
          docs_[q.doc].joins[q.join].name + "/" + AlgorithmName(q.alg);
      if (!ran_.count(key)) {
        return Status::Internal("query never ran: " + key);
      }
    }
    std::printf("check paper_direct: %zu (join, algorithm) pairs over %zu "
                "joins agree on count and checksum\n",
                ran_.size(), expected_.size());
    return Status::OK();
  }

  Status Teardown() override {
    for (Doc& doc : docs_) {
      doc.sets.clear();
      doc.store.reset();
    }
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Environment()
      const override {
    char sf[32], pubs[32];
    std::snprintf(sf, sizeof(sf), "%g", xmark_sf_);
    std::snprintf(pubs, sizeof(pubs), "%llu",
                  static_cast<unsigned long long>(dblp_pubs_));
    return {{"backend", "file"},
            {"codec", "raw"},
            {"threads", "1"},
            {"xmark_sf", sf},
            {"dblp_publications", pubs},
            {"xmark_work_pages", std::to_string(docs_[0].work_pages)},
            {"dblp_work_pages", std::to_string(docs_[1].work_pages)},
            {"pool_pages", "work_pages+8 per document"},
            {"queries_per_round", std::to_string(queries_.size())}};
  }

 private:
  Status BuildDoc(size_t i, const std::string& dir, Tracer* tracer) {
    Doc& doc = docs_[i];
    DataTree tree;
    if (i == 0) {
      Tracer::Span span(tracer, "GenerateXmark");
      XmarkOptions gen;
      gen.scale_factor = xmark_sf_;
      gen.seed = cfg_.seed;
      PBITREE_RETURN_IF_ERROR(GenerateXmark(&tree, gen));
    } else {
      Tracer::Span span(tracer, "GenerateDblp");
      DblpOptions gen;
      gen.num_publications = dblp_pubs_;
      gen.seed = cfg_.seed;
      PBITREE_RETURN_IF_ERROR(GenerateDblp(&tree, gen));
    }
    PBiTreeSpec spec;
    {
      Tracer::Span span(tracer, "BinarizeTree");
      PBITREE_RETURN_IF_ERROR(BinarizeTree(&tree, &spec));
    }

    SegmentStore::Options opts;
    opts.backend = "file";
    opts.path = dir + "/" + doc.name + ".db";
    opts.pool_pages = kBuildPoolPages;
    opts.create_level = 0;
    opts.page_codec = PageCodecKind::kRaw;
    doc.path = opts.path;
    {
      std::unique_ptr<SegmentStore> store;
      {
        Tracer::Span span(tracer, "SegmentStore::Open");
        PBITREE_ASSIGN_OR_RETURN(store, SegmentStore::Open(opts));
      }
      BufferManager* bm = store->main_bm();
      for (const std::string& tag : Tags(doc)) {
        Tracer::Span span(tracer, "ExtractTagSetByName");
        PBITREE_ASSIGN_OR_RETURN(
            ElementSet set, ExtractTagSetByName(bm, tree, spec, tag, 0,
                                                PageCodecKind::kRaw));
        PBITREE_RETURN_IF_ERROR(store->main_catalog()->Put(tag, set));
      }
      Tracer::Span span(tracer, "Catalog::Save");
      PBITREE_RETURN_IF_ERROR(store->main_catalog()->Save(bm));
      PBITREE_RETURN_IF_ERROR(store->FlushAndSync());
    }

    // Reopen from disk, as a restarted process would, with the pool the
    // joins run on.
    opts.create_level = -1;
    opts.pool_pages = doc.work_pages + 8;
    {
      Tracer::Span span(tracer, "SegmentStore::Open");
      PBITREE_ASSIGN_OR_RETURN(doc.store, SegmentStore::Open(opts));
    }
    for (const std::string& tag : Tags(doc)) {
      PBITREE_ASSIGN_OR_RETURN(
          doc.sets[tag],
          doc.store->main_catalog()->Get(doc.store->main_bm(), tag));
    }
    return Status::OK();
  }

  const ElementSet& A(const Query& q) const {
    const Doc& doc = docs_[q.doc];
    return doc.sets.at(doc.joins[q.join].ancestor_tag);
  }
  const ElementSet& D(const Query& q) const {
    const Doc& doc = docs_[q.doc];
    return doc.sets.at(doc.joins[q.join].descendant_tag);
  }

  static std::set<std::string> Tags(const Doc& doc) {
    std::set<std::string> tags;
    for (const TagJoinSpec& j : doc.joins) {
      tags.insert(j.ancestor_tag);
      tags.insert(j.descendant_tag);
    }
    return tags;
  }

  void BuildQueryList() {
    for (size_t di = 0; di < 2; ++di) {
      const Doc& doc = docs_[di];
      for (size_t ji = 0; ji < doc.joins.size(); ++ji) {
        const ElementSet& a = doc.sets.at(doc.joins[ji].ancestor_tag);
        for (const AlgorithmInfo& info : AllAlgorithms()) {
          // SHCJ is defined for single-height ancestor sets only.
          if (info.alg == Algorithm::kShcj && !a.SingleHeight()) continue;
          queries_.push_back({di, ji, info.alg});
        }
      }
    }
  }

  void CheckDigest(const Query& q, const PairDigest& got) {
    const std::string& join = docs_[q.doc].joins[q.join].name;
    ran_.insert(join + "/" + AlgorithmName(q.alg));
    auto [it, first] = expected_.emplace(join, got);
    if (!first && !(it->second == got) && mismatch_.empty()) {
      mismatch_ = join + " under " + AlgorithmName(q.alg) + " gave " +
                  got.ToString() + ", expected " + it->second.ToString();
    }
  }

  double BytesPerElement() const {
    double bytes = 0.0, elements = 0.0;
    for (const Doc& doc : docs_) {
      std::error_code ec;
      bytes += static_cast<double>(std::filesystem::file_size(doc.path, ec));
      for (const auto& [tag, set] : doc.sets) {
        elements += static_cast<double>(set.num_records());
      }
    }
    return Ratio(bytes, elements);
  }

  Config cfg_;
  Random rng_;
  double xmark_sf_ = 0.0;
  uint64_t dblp_pubs_ = 0;
  Doc docs_[2];
  std::vector<Query> queries_;
  std::map<std::string, PairDigest> expected_;  // per join name
  std::set<std::string> ran_;                   // "join/algorithm"
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperDirect(const Config& cfg) {
  return std::make_unique<PaperDirect>(cfg);
}

}  // namespace perfbench
