#ifndef PBITREE_JOIN_RESULT_SINK_H_
#define PBITREE_JOIN_RESULT_SINK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "pbitree/code.h"
#include "pbitree/simd.h"
#include "storage/scratch.h"

namespace pbitree {

/// \brief Consumer of containment-join output tuples.
///
/// Join algorithms emit (ancestor, descendant) code pairs into a sink;
/// benchmarks count, tests collect, applications materialise. Hot loops
/// emit batches (usually staged through a PairBuffer) so the virtual
/// dispatch and the Status round-trip amortise over many pairs; OnPair
/// remains for callers producing single pairs.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once per result pair: `a` is a proper ancestor of `d`.
  virtual Status OnPair(Code a, Code d) = 0;

  /// Batched emission, pairs in emission order. The default forwards
  /// pair-by-pair so sinks only implementing OnPair stay correct;
  /// every sink in the repository overrides it with a bulk path.
  virtual Status OnBatch(std::span<const ResultPair> pairs) {
    for (const ResultPair& p : pairs) {
      PBITREE_RETURN_IF_ERROR(OnPair(p.ancestor_code, p.descendant_code));
    }
    return Status::OK();
  }

  uint64_t count() const { return count_; }

 protected:
  uint64_t count_ = 0;
};

/// \brief Fixed-size staging buffer between a join's inner loop and its
/// sink: Emit() is a non-virtual store into a local array, and a full
/// buffer flushes as one OnBatch call — amortising the virtual dispatch
/// and Status check over kCapacity pairs.
///
/// Pairs also count into `*pair_counter` (the join's
/// stats.output_pairs) at Emit time, exactly as the per-pair loops did.
/// Callers MUST Flush() before reading results or returning success;
/// the destructor deliberately drops unflushed pairs (error paths
/// abandon output, they don't emit it).
class PairBuffer {
 public:
  static constexpr size_t kCapacity = 256;

  PairBuffer(ResultSink* sink, uint64_t* pair_counter)
      : sink_(sink), pair_counter_(pair_counter) {}

  Status Emit(Code a, Code d) {
    ++*pair_counter_;
    buf_[size_++] = ResultPair{a, d};
    if (size_ == kCapacity) return Flush();
    return Status::OK();
  }

  /// Emits (anc, ds[0]), (anc, ds[1]), ... — the batch form of an Emit
  /// loop over one ancestor's descendants, packed with the SIMD
  /// kernels. Fill and flush boundaries are identical to per-pair Emit
  /// (the buffer fills at the same pair indexes), so downstream batch
  /// sizes — and any sink spill files — stay byte-identical.
  Status EmitDescendants(Code anc, std::span<const Code> ds) {
    while (!ds.empty()) {
      const size_t room = kCapacity - size_;
      const size_t m = ds.size() < room ? ds.size() : room;
      *pair_counter_ += m;
      simd::PackPairsFixedAncestor(anc, ds.data(), m,
                                   reinterpret_cast<uint64_t*>(buf_ + size_));
      size_ += m;
      ds = ds.subspan(m);
      if (size_ == kCapacity) PBITREE_RETURN_IF_ERROR(Flush());
    }
    return Status::OK();
  }

  /// Emits (as[0], d), (as[1], d), ... — the batch form of an Emit loop
  /// over one descendant's open ancestors. Same boundary guarantee as
  /// EmitDescendants.
  Status EmitAncestors(std::span<const Code> as, Code d) {
    while (!as.empty()) {
      const size_t room = kCapacity - size_;
      const size_t m = as.size() < room ? as.size() : room;
      *pair_counter_ += m;
      simd::PackPairsFixedDescendant(as.data(), m, d,
                                     reinterpret_cast<uint64_t*>(buf_ + size_));
      size_ += m;
      as = as.subspan(m);
      if (size_ == kCapacity) PBITREE_RETURN_IF_ERROR(Flush());
    }
    return Status::OK();
  }

  Status Flush() {
    if (size_ == 0) return Status::OK();
    size_t n = size_;
    size_ = 0;
    return sink_->OnBatch(std::span<const ResultPair>(buf_, n));
  }

 private:
  ResultSink* sink_;
  uint64_t* pair_counter_;
  size_t size_ = 0;
  ResultPair buf_[kCapacity];
};

/// Counts results without storing them (the benchmark sink).
class CountingSink : public ResultSink {
 public:
  Status OnPair(Code, Code) override {
    ++count_;
    return Status::OK();
  }

  Status OnBatch(std::span<const ResultPair> pairs) override {
    count_ += pairs.size();
    return Status::OK();
  }
};

/// Collects pairs in memory (the test sink). Pairs can be sorted for
/// order-insensitive comparison.
class VectorSink : public ResultSink {
 public:
  Status OnPair(Code a, Code d) override {
    ++count_;
    pairs_.push_back(ResultPair{a, d});
    return Status::OK();
  }

  Status OnBatch(std::span<const ResultPair> pairs) override {
    count_ += pairs.size();
    pairs_.insert(pairs_.end(), pairs.begin(), pairs.end());
    return Status::OK();
  }

  std::vector<ResultPair>& pairs() { return pairs_; }
  const std::vector<ResultPair>& pairs() const { return pairs_; }

  /// Sorts pairs lexicographically — canonical form for set comparison.
  void Sort();

 private:
  std::vector<ResultPair> pairs_;
};

/// Buffers pairs for later replay into another sink — the thread-local
/// sink of the segment fan-out driver (exec/partition_exec.h). Each
/// task emits into its own BufferingSink with no synchronisation; the
/// driver replays every buffer into the shared sink in task order once
/// all tasks finished, reproducing the serial emission sequence.
///
/// Containment-join output can dwarf the input, so a sink constructed
/// with a BufferManager bounds its heap footprint: once `max_buffered`
/// pairs accumulate they are spilled to a temp heap file and replayed
/// from disk first (spill order == emission order). The sink owns its
/// spill file, so a sink abandoned on an error path frees it. The
/// default-constructed sink never spills (unbounded memory — only for
/// tests and known-small outputs).
class BufferingSink : public ResultSink {
 public:
  BufferingSink() = default;

  BufferingSink(BufferManager* bm, size_t max_buffered)
      : bm_(bm), max_buffered_(max_buffered < 1 ? 1 : max_buffered) {}

  Status OnPair(Code a, Code d) override {
    ++count_;
    pairs_.push_back(ResultPair{a, d});
    if (bm_ != nullptr && pairs_.size() >= max_buffered_) return Spill();
    return Status::OK();
  }

  /// Bulk ingest in spill-boundary-identical chunks: the buffer spills
  /// at exactly the same fill points as pair-by-pair emission, so spill
  /// files (and their page I/O) are byte-identical either way.
  Status OnBatch(std::span<const ResultPair> pairs) override {
    if (bm_ == nullptr) {
      count_ += pairs.size();
      pairs_.insert(pairs_.end(), pairs.begin(), pairs.end());
      return Status::OK();
    }
    while (!pairs.empty()) {
      const size_t room = max_buffered_ - pairs_.size();
      const size_t m = pairs.size() < room ? pairs.size() : room;
      count_ += m;
      pairs_.insert(pairs_.end(), pairs.begin(), pairs.begin() + m);
      pairs = pairs.subspan(m);
      if (pairs_.size() >= max_buffered_) PBITREE_RETURN_IF_ERROR(Spill());
    }
    return Status::OK();
  }

  /// Forwards every buffered pair to `target` (in emission order:
  /// spilled pairs first, then the in-memory tail) and clears the
  /// buffer.
  Status ReplayInto(ResultSink* target) {
    if (spill_->valid()) {
      {
        HeapFile::Scanner scan(bm_, *spill_);
        for (std::span<const ResultPair> batch = scan.NextPairBatch();
             !batch.empty(); batch = scan.NextPairBatch()) {
          PBITREE_RETURN_IF_ERROR(target->OnBatch(batch));
        }
        PBITREE_RETURN_IF_ERROR(scan.status());
      }
      PBITREE_RETURN_IF_ERROR(spill_.Drop());
    }
    PBITREE_RETURN_IF_ERROR(target->OnBatch(pairs_));
    pairs_.clear();
    return Status::OK();
  }

  /// True when any pairs went to disk (tests).
  bool spilled() const { return spill_->valid(); }

 private:
  Status Spill() {
    if (!spill_->valid()) {
      PBITREE_ASSIGN_OR_RETURN(spill_, ScratchFile::Create(bm_));
    }
    obs::Count(obs::Counter::kSinkSpills);
    obs::Count(obs::Counter::kSinkSpilledPairs, pairs_.size());
    HeapFile::Appender app(bm_, spill_.get());
    PBITREE_RETURN_IF_ERROR(app.AppendPairs(pairs_));
    PBITREE_RETURN_IF_ERROR(app.Finish());
    pairs_.clear();
    return Status::OK();
  }

  BufferManager* bm_ = nullptr;
  size_t max_buffered_ = 0;
  ScratchFile spill_;  // pairs that overflowed the buffer, oldest first
  std::vector<ResultPair> pairs_;
};

/// Appends pairs to a heap file (the pipeline sink: results of one join
/// feed the next, as in multi-step path queries).
class MaterializeSink : public ResultSink {
 public:
  MaterializeSink(BufferManager* bm, HeapFile* out) : app_(bm, out) {}

  Status OnPair(Code a, Code d) override {
    ++count_;
    return app_.AppendPair(ResultPair{a, d});
  }

  Status OnBatch(std::span<const ResultPair> pairs) override {
    count_ += pairs.size();
    return app_.AppendPairs(pairs);
  }

  /// Flushes the tail page. Must be called — and its status checked —
  /// before reading the file: a failed tail flush means the last page
  /// of pairs never became readable.
  Status Finish() { return app_.Finish(); }

 private:
  HeapFile::Appender app_;
};

/// Wraps another sink and verifies every emitted pair with the exact
/// Lemma-1 predicate — the failure-injection harness used by tests.
class VerifyingSink : public ResultSink {
 public:
  explicit VerifyingSink(ResultSink* inner) : inner_(inner) {}

  Status OnPair(Code a, Code d) override {
    PBITREE_RETURN_IF_ERROR(Verify(a, d));
    ++count_;
    return inner_->OnPair(a, d);
  }

  Status OnBatch(std::span<const ResultPair> pairs) override {
    for (const ResultPair& p : pairs) {
      PBITREE_RETURN_IF_ERROR(Verify(p.ancestor_code, p.descendant_code));
    }
    count_ += pairs.size();
    return inner_->OnBatch(pairs);
  }

 private:
  static Status Verify(Code a, Code d) {
    if (!IsAncestor(a, d)) {
      return Status::Internal("join emitted non-ancestor pair (" +
                              std::to_string(a) + ", " + std::to_string(d) +
                              ")");
    }
    return Status::OK();
  }

  ResultSink* inner_;
};

}  // namespace pbitree

#endif  // PBITREE_JOIN_RESULT_SINK_H_
