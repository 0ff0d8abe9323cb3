#include "join/mpmgjn.h"

#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "pbitree/simd.h"
#include "sort/external_sort.h"

namespace pbitree {

namespace {

/// A rewindable window over the descendant file: records between the
/// current mark and the read frontier stay buffered in memory so the
/// inner rescans of MPMGJN re-read them without extra I/O when they fit
/// (mirroring how the original operates on blocks); records evicted
/// past the window are re-fetched by restarting a scanner, charging the
/// re-scan I/O honestly.
///
/// The window is a flat vector (front eviction is a lazily-compacted
/// start offset), so callers get contiguous ElementRecord spans the
/// batch kernels can consume directly. Page-fetch, eviction and restart
/// decisions are identical to the record-at-a-time predecessor: a page
/// is pulled exactly when the requested position crosses the frontier,
/// and the window always holds the last kMaxWindow records read.
class RewindableScan {
 public:
  RewindableScan(BufferManager* bm, const HeapFile& file)
      : bm_(bm),
        file_(&file),
        scan_(std::make_unique<HeapFile::Scanner>(bm, file)) {}

  /// Returns the buffered records from absolute index `pos` to the read
  /// frontier, pulling one page when `pos` is exactly at the frontier.
  /// Empty span at end of file (st OK) or on error (st not OK). The
  /// span is invalidated by the next SpanAt call.
  std::span<const ElementRecord> SpanAt(uint64_t pos, Status* st) {
    *st = Status::OK();
    if (pos < window_base_) {
      // Window lost: restart the scan from the beginning (real I/O).
      scan_ = std::make_unique<HeapFile::Scanner>(bm_, *file_);
      window_.clear();
      start_off_ = 0;
      window_base_ = 0;
      next_ = 0;
    }
    if (pos == next_) {
      std::span<const ElementRecord> batch = scan_->NextElementBatch();
      if (batch.empty()) {
        *st = scan_->status();
        return {};
      }
      window_.insert(window_.end(), batch.begin(), batch.end());
      next_ += batch.size();
      // Bound the in-memory window to the last kMaxWindow records.
      while (window_.size() - start_off_ > kMaxWindow) {
        ++start_off_;
        ++window_base_;
      }
      if (start_off_ >= kMaxWindow) {
        // Compact so the vector never holds more than ~2x the window.
        window_.erase(window_.begin(),
                      window_.begin() + static_cast<ptrdiff_t>(start_off_));
        start_off_ = 0;
      }
    }
    const size_t off = start_off_ + static_cast<size_t>(pos - window_base_);
    return std::span<const ElementRecord>(window_.data() + off,
                                          window_.size() - off);
  }

 private:
  static constexpr size_t kMaxWindow = 1 << 16;

  BufferManager* bm_;
  const HeapFile* file_;
  std::unique_ptr<HeapFile::Scanner> scan_;
  std::vector<ElementRecord> window_;
  size_t start_off_ = 0;      // window_[start_off_] is record window_base_
  uint64_t window_base_ = 0;  // absolute index of the logical front
  uint64_t next_ = 0;         // read frontier (records pulled so far)
};

}  // namespace

Status Mpmgjn(JoinContext* ctx, SortedStream* a, const HeapFile& d,
              ResultSink* sink) {
  obs::ObsSpan merge_span(obs::Phase::kMerge);
  RewindableScan d_scan(ctx->bm, d);
  PairBuffer out(sink, &ctx->stats.output_pairs);

  uint64_t mark = 0;  // index in D where the current merge segment starts
  std::vector<Code> scratch;  // qualifying descendants per (a, span) step

  for (; a->live(); a->Advance()) {
    const Code a_code = a->rec().code;
    const uint64_t a_start = StartOf(a_code);
    const uint64_t a_end = EndOf(a_code);
    Status pst;
    // Advance the mark past descendants that no later ancestor can
    // contain (their Start precedes this and every following a).
    for (;;) {
      std::span<const ElementRecord> span = d_scan.SpanAt(mark, &pst);
      if (span.empty()) break;  // end of D (or error)
      const size_t adv = simd::LowerBoundStart(
          reinterpret_cast<const uint64_t*>(span.data()), 2, span.size(),
          a_start);
      mark += adv;
      if (adv < span.size()) break;  // first Start >= a_start is in window
    }
    PBITREE_RETURN_IF_ERROR(pst);
    // Scan the segment of D inside a's region (rescanned per ancestor):
    // each window span contributes its prefix with Start <= a_end,
    // filtered by the exact Lemma-1 test in input order.
    for (uint64_t pos = mark;;) {
      std::span<const ElementRecord> span = d_scan.SpanAt(pos, &pst);
      if (span.empty()) break;
      // First index past the segment: Start > a_end. The root of a
      // full-height tree has a_end == UINT64_MAX; nothing can pass it.
      const size_t stop =
          a_end == UINT64_MAX
              ? span.size()
              : simd::LowerBoundStart(
                    reinterpret_cast<const uint64_t*>(span.data()), 2,
                    span.size(), a_end + 1);
      scratch.resize(stop);
      const size_t m = simd::FilterDescendants(
          a_code, reinterpret_cast<const uint64_t*>(span.data()), 2, stop,
          scratch.data());
      PBITREE_RETURN_IF_ERROR(
          out.EmitDescendants(a_code, std::span<const Code>(scratch.data(), m)));
      pos += stop;
      if (stop < span.size()) break;  // segment ends inside this span
    }
    PBITREE_RETURN_IF_ERROR(pst);
  }
  PBITREE_RETURN_IF_ERROR(a->status());
  return out.Flush();
}

}  // namespace pbitree
