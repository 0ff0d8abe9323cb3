// sharded_parallel: code-space sharding under the partition-parallel
// executor. The canonical multi-height MLLL synthetic sets, several
// times the size of the per-segment pools, are stored at segment level
// 2 with FoR-delta pages on the file backend. One caller, closed loop,
// threads=2: every round runs a cold-pool RunSegmentedJoin under VPJ,
// MHCJ+Rollup and STACKTREE in a seeded order.
//
// Two workers, not one per CPU: on a shared 4-CPU host one busy CPU
// slowed threads=4 joins by 60% but left threads=2 joins unchanged, and
// the parallel page-read growth already shows at two workers.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/segment_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pbitree;

constexpr int kLevel = 2;
constexpr size_t kBuildPoolPages = 4096;  // pool of the loading pass
constexpr size_t kThreads = 2;
constexpr Algorithm kAlgorithms[] = {Algorithm::kVpj, Algorithm::kMhcjRollup,
                                     Algorithm::kStackTree};

class ShardedParallel : public Workload {
 public:
  explicit ShardedParallel(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {
    scale_ = 0.05 * cfg.scale;
    // The paper's 500-page buffer per 10^6 elements, floored so each of
    // the 2^l segment pools keeps its 16-frame minimum.
    pool_pages_ = std::max<size_t>(64, static_cast<size_t>(500 * scale_));
  }

  Status Setup(const std::string& dir, Tracer* tracer) override {
    PBITREE_RETURN_IF_ERROR(Teardown());
    StatusOr<SyntheticSpec> spec = CanonicalSpecByName("MLLL", scale_, cfg_.seed);
    if (!spec.ok()) return spec.status();
    spec_ = *spec;
    staging_disk_.reset(DiskManager::OpenInMemory());
    staging_bm_ = std::make_unique<BufferManager>(staging_disk_.get(), 256);
    {
      Tracer::Span span(tracer, "GenerateSynthetic");
      PBITREE_ASSIGN_OR_RETURN(staged_, GenerateSynthetic(staging_bm_.get(),
                                                          spec_));
    }

    SegmentStore::Options opts;
    opts.backend = "file";
    opts.path = dir + "/sharded.db";
    opts.pool_pages = kBuildPoolPages;
    opts.create_level = kLevel;
    opts.page_codec = PageCodecKind::kFoRDelta;
    path_ = opts.path;
    {
      std::unique_ptr<SegmentStore> build;
      {
        Tracer::Span span(tracer, "SegmentStore::Open");
        PBITREE_ASSIGN_OR_RETURN(build, SegmentStore::Open(opts));
      }
      {
        Tracer::Span span(tracer, "SegmentStore::StoreSet");
        PBITREE_RETURN_IF_ERROR(
            build->StoreSet("a", staged_->a, staging_bm_.get()));
        PBITREE_RETURN_IF_ERROR(
            build->StoreSet("d", staged_->d, staging_bm_.get()));
      }
      Tracer::Span span(tracer, "SegmentStore::SaveCatalogs");
      PBITREE_RETURN_IF_ERROR(build->SaveCatalogs());
      PBITREE_RETURN_IF_ERROR(build->FlushAndSync());
    }
    // Reopen with the pool the joins run on.
    opts.create_level = -1;
    opts.pool_pages = pool_pages_;
    {
      Tracer::Span span(tracer, "SegmentStore::Open");
      PBITREE_ASSIGN_OR_RETURN(store_, SegmentStore::Open(opts));
    }
    PBITREE_ASSIGN_OR_RETURN(a_, store_->Load("a"));
    PBITREE_ASSIGN_OR_RETURN(d_, store_->Load("d"));
    if (store_->level() != kLevel) {
      return Status::Internal("store reopened at the wrong segment level");
    }
    return Status::OK();
  }

  Status Measure(double seconds, Tracer* tracer, PhaseResult* out) override {
    RoundQueries rounds;
    rounds.count = std::size(kAlgorithms);
    rounds.plan = [&](size_t) {
      InputProperties pa, pd;
      pa.sorted = a_.sorted_by_start;
      pd.sorted = d_.sorted_by_start;
      return ChooseAlgorithm(pa, pd, a_.SingleHeight());
    };
    rounds.run = [&](size_t i, uint64_t qid, Tracer* t, ResultSink* sink) {
      Tracer::Span span(t, "RunSegmentedJoin", qid);
      return RunSegmentedJoin(kAlgorithms[i], store_->main_bm(), a_, d_, sink,
                              JoinOptions(kThreads));
    };
    rounds.done = [&](size_t i, uint64_t, Tracer*, const PairDigest& digest) {
      Record(kAlgorithms[i], digest);
    };
    rounds.name = [&](size_t i) { return AlgorithmName(kAlgorithms[i]); };
    RunRounds(seconds, rounds, &rng_, tracer, out);
    out->bytes_per_element = BytesPerElement();
    return Status::OK();
  }

  Status Verify(Report* layer) override {
    if (!mismatch_.empty()) return Status::Corruption(mismatch_);
    // Serial level-0 reference over the unsharded generated sets.
    ChecksumSink ref;
    RunOptions serial;
    serial.work_pages = pool_pages_;
    serial.threads = 1;
    serial.cold_cache = true;
    PBITREE_RETURN_IF_ERROR(RunJoin(Algorithm::kStackTree, staging_bm_.get(),
                                    staged_->a, staged_->d, &ref, serial)
                                .status());
    for (const auto& [alg, digest] : digests_) {
      if (!(digest == ref.digest())) {
        return Status::Corruption(
            std::string(AlgorithmName(alg)) + " at level " +
            std::to_string(kLevel) + ", threads=" + std::to_string(kThreads) +
            " gave " + digest.ToString() + "; serial level-0 reference " +
            ref.digest().ToString());
      }
    }
    if (digests_.size() != std::size(kAlgorithms)) {
      return Status::Internal("not every algorithm ran");
    }
    // Page reads of the same joins at threads=1 on the same store: the
    // base of the parallel-read comparison.
    double reads = 0.0;
    for (Algorithm alg : kAlgorithms) {
      ChecksumSink sink;
      PBITREE_ASSIGN_OR_RETURN(
          RunResult run, RunSegmentedJoin(alg, store_->main_bm(), a_, d_,
                                          &sink, JoinOptions(1)));
      if (!(sink.digest() == ref.digest())) {
        return Status::Corruption(std::string(AlgorithmName(alg)) +
                                  " at threads=1 disagrees with the reference");
      }
      reads += static_cast<double>(run.page_reads);
    }
    layer->Add("storage.serial_page_reads",
               reads / static_cast<double>(std::size(kAlgorithms)),
               "pages/query", "same joins at threads=1, level 2");
    std::printf("check sharded_parallel: %zu algorithms at threads=%zu match "
                "the serial level-0 reference (%s)\n",
                digests_.size(), kThreads, ref.digest().ToString().c_str());
    return Status::OK();
  }

  Status Teardown() override {
    a_ = SegmentedSet{};
    d_ = SegmentedSet{};
    store_.reset();
    staged_.reset();
    staging_bm_.reset();
    staging_disk_.reset();
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Environment()
      const override {
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%g", scale_);
    return {{"backend", "file"},
            {"codec", "for-delta"},
            {"threads", std::to_string(kThreads)},
            {"segment_level", std::to_string(kLevel)},
            {"dataset", "MLLL"},
            {"synthetic_scale", scale},
            {"elements", std::to_string(spec_.a_count) + "+" +
                             std::to_string(spec_.d_count)},
            {"pool_pages", std::to_string(pool_pages_)},
            {"segment_pool_pages",
             std::to_string(std::max<size_t>(
                 SegmentStore::kMinSegmentPoolPages,
                 pool_pages_ >> kLevel))},
            {"work_pages", std::to_string(pool_pages_)}};
  }

 private:
  RunOptions JoinOptions(size_t threads) const {
    RunOptions opts;
    opts.work_pages = pool_pages_;
    opts.threads = threads;
    opts.cold_cache = true;
    return opts;
  }

  void Record(Algorithm alg, const PairDigest& got) {
    auto [it, first] = digests_.emplace(alg, got);
    if (!first && !(it->second == got) && mismatch_.empty()) {
      mismatch_ = std::string(AlgorithmName(alg)) + " changed its answer: " +
                  got.ToString() + " after " + it->second.ToString();
    }
  }

  double BytesPerElement() const {
    std::error_code ec;
    double bytes = static_cast<double>(std::filesystem::file_size(path_, ec));
    for (size_t k = 0; k < store_->num_segments(); ++k) {
      bytes += static_cast<double>(std::filesystem::file_size(
          path_ + ".seg" + std::to_string(k), ec));
    }
    return Ratio(bytes, static_cast<double>(spec_.a_count + spec_.d_count));
  }

  Config cfg_;
  Random rng_;
  double scale_ = 0.0;
  size_t pool_pages_ = 64;
  SyntheticSpec spec_;
  std::unique_ptr<DiskManager> staging_disk_;
  std::unique_ptr<BufferManager> staging_bm_;
  std::optional<SyntheticDataset> staged_;
  std::string path_;
  std::unique_ptr<SegmentStore> store_;
  SegmentedSet a_, d_;
  std::map<Algorithm, PairDigest> digests_;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardedParallel(const Config& cfg) {
  return std::make_unique<ShardedParallel>(cfg);
}

}  // namespace perfbench
