#include "join/adb.h"

#include <limits>
#include <memory>
#include <vector>

#include "join/validate.h"
#include "obs/metrics.h"

namespace pbitree {

namespace {

constexpr uint64_t kMaxKey = std::numeric_limits<uint64_t>::max();

/// Index-backed document-order cursor with reposition support.
class IndexCursor {
 public:
  IndexCursor(BufferManager* bm, const BPTree& index) : bm_(bm), index_(&index) {
    Reseek(0);
  }

  bool live() const { return live_; }
  const ElementRecord& rec() const { return rec_; }
  uint64_t start() const { return StartOf(rec_.code); }

  Status Advance() {
    Status st;
    live_ = scan_->Next(&rec_, &st);
    return st;
  }

  /// Repositions to the first entry with Start >= key.
  Status SeekTo(uint64_t key) {
    Reseek(key);
    return Advance();
  }

 private:
  void Reseek(uint64_t key) {
    scan_ = std::make_unique<BPTree::RangeScanner>(bm_, *index_, key, kMaxKey);
  }

  BufferManager* bm_;
  const BPTree* index_;
  std::unique_ptr<BPTree::RangeScanner> scan_;
  ElementRecord rec_;
  bool live_ = false;
};

}  // namespace

Status AdbJoin(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
               const BPTree& a_start_index, const BPTree& d_start_index,
               ResultSink* sink) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("ADB+", a, d, &empty));
  if (empty) return Status::OK();
  if (a_start_index.key_kind() != KeyKind::kStart ||
      d_start_index.key_kind() != KeyKind::kStart) {
    return Status::InvalidArgument("ADB+ requires Start-keyed B+-trees");
  }

  // Widest region length on the A side, for the conservative ancestor
  // skip bound.
  const int h_max = a.MaxHeight();
  const uint64_t l_max = (uint64_t{2} << h_max) - 2;

  obs::ObsSpan merge_span(obs::Phase::kMerge);
  IndexCursor a_cur(ctx->bm, a_start_index);
  IndexCursor d_cur(ctx->bm, d_start_index);
  PBITREE_RETURN_IF_ERROR(a_cur.SeekTo(0));
  PBITREE_RETURN_IF_ERROR(d_cur.SeekTo(0));
  PairBuffer out(sink, &ctx->stats.output_pairs);

  std::vector<Code> stack;

  while (d_cur.live() && (a_cur.live() || !stack.empty())) {
    // ---- Skipping (only sound while no ancestor is open).
    if (stack.empty() && a_cur.live()) {
      if (EndOf(a_cur.rec().code) < d_cur.start()) {
        // Every a with Start < d.Start - Lmax has End < d.Start: dead.
        uint64_t target = d_cur.start() > l_max ? d_cur.start() - l_max : 0;
        if (target > a_cur.start()) {
          ++ctx->stats.index_probes;
          PBITREE_RETURN_IF_ERROR(a_cur.SeekTo(target));
          continue;
        }
      } else if (d_cur.start() < a_cur.start()) {
        // No remaining ancestor starts before a; these d are orphans.
        ++ctx->stats.index_probes;
        PBITREE_RETURN_IF_ERROR(d_cur.SeekTo(a_cur.start()));
        continue;
      }
    }

    // ---- Plain stack-tree step.
    bool take_a = false;
    if (a_cur.live()) {
      uint64_t as = a_cur.start();
      uint64_t ds = d_cur.start();
      // Document order with ancestor-first tie break; ties with equal
      // heights cannot happen across distinct codes.
      take_a = as < ds || (as == ds && HeightOf(a_cur.rec().code) >=
                                           HeightOf(d_cur.rec().code));
    }
    if (take_a) {
      while (!stack.empty() && EndOf(stack.back()) < a_cur.start()) {
        stack.pop_back();
      }
      stack.push_back(a_cur.rec().code);
      PBITREE_RETURN_IF_ERROR(a_cur.Advance());
    } else {
      while (!stack.empty() && EndOf(stack.back()) < d_cur.start()) {
        stack.pop_back();
      }
      for (Code anc : stack) {
        if (IsAncestor(anc, d_cur.rec().code)) {
          PBITREE_RETURN_IF_ERROR(out.Emit(anc, d_cur.rec().code));
        }
      }
      PBITREE_RETURN_IF_ERROR(d_cur.Advance());
    }
  }
  return out.Flush();
}

}  // namespace pbitree
