#ifndef PBITREE_SORT_EXTERNAL_SORT_H_
#define PBITREE_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/heap_file.h"
#include "storage/scratch.h"

namespace pbitree {

/// \brief Sort orders used by the containment-join algorithms.
///
/// kStartOrder is document order: region Start ascending with ties (a
/// node and the leftmost leaf of its subtree share a Start under the
/// Lemma-3 conversion) broken by height descending, so an ancestor
/// always precedes its descendants — the order MPMGJN / STACKTREE /
/// ADB+ require.
enum class SortOrder {
  kStartOrder,  // DocKey(code) ascending
  kCodeOrder,   // raw PBiTree code ascending
};

/// The one integer a record sorts by under `order`. Records with equal
/// keys (the same code in two documents, or a duplicate) sort by (doc,
/// tag), so every sort's output sequence is fully determined.
inline uint64_t SortKey(Code code, SortOrder order) {
  return order == SortOrder::kStartOrder ? DocKey(code) : code;
}

/// \brief The sorted output of ExternalSort, read once front to back
/// through a cursor: live() / rec() / Advance(), like
/// HeapFile::BatchCursor.
///
/// A stream yields one of three things: records sorted in memory, the
/// final merge of sorted runs on disk, or a scan of a file that is
/// already in order (Scan). The final merge is never written out; each
/// batch of it is merged when the consumer asks for it, and that time
/// bills to obs::Phase::kSort. A stream owns its runs (one Scratch
/// each), so they are freed when it closes or goes out of scope, on
/// every exit.
///
/// A cursor that went dead either hit the end (status() OK) or an I/O
/// error (status() latched).
class SortedStream {
 public:
  SortedStream() = default;
  ~SortedStream();
  SortedStream(SortedStream&& o) noexcept;
  SortedStream& operator=(SortedStream&& o) noexcept;
  SortedStream(const SortedStream&) = delete;
  SortedStream& operator=(const SortedStream&) = delete;

  /// A stream over `file`, which is already in the consumer's order:
  /// no sort, no pages held beyond the scan's own.
  static SortedStream Scan(BufferManager* bm, const HeapFile& file);

  bool live() const { return pos_ < batch_.size(); }
  const ElementRecord& rec() const { return batch_[pos_]; }
  void Advance() {
    if (++pos_ == batch_.size()) Refill();
  }
  const Status& status() const { return status_; }

  /// Work pages the stream holds until it closes: the pages of an
  /// in-memory run, or one pinned page per run it merges.
  size_t held_pages() const;

  /// Ends the stream and frees its runs; the error of that free.
  Status Close();

 private:
  friend class StreamBuilder;
  struct HeapEntry {
    uint64_t key;
    uint64_t tie;  // (doc << 32) | tag
    uint32_t run;
  };

  void Refill();
  void SiftDown();

  enum class Mode { kDone, kMemory, kScan, kMerge };
  Mode mode_ = Mode::kDone;
  SortOrder order_ = SortOrder::kStartOrder;
  std::span<const ElementRecord> batch_;
  size_t pos_ = 0;
  Status status_;
  // ExternalSort's output: Refill and Close bill Phase::kSort.
  bool sort_output_ = false;
  // kMemory: the sorted records; kMerge: the batch being consumed.
  std::vector<ElementRecord> records_;
  // The runs a final merge reads (kScan over one run, kMerge over
  // several). Declared before the scanner and cursors over them, so
  // their pins are released before the pages are freed.
  std::vector<ScratchFile> runs_;
  std::unique_ptr<HeapFile::Scanner> scan_;  // kScan
  std::vector<std::unique_ptr<HeapFile::BatchCursor>> cursors_;
  std::vector<HeapEntry> heap_;
};

/// \brief External merge sort over a heap file of ElementRecords — the
/// "custom sorting routine" of Section 3.1 that lets the sort-based
/// region algorithms run on PBiTree-coded data — returning a stream.
///
/// Records are ordered by SortKey, then (doc, tag). Each run is sorted
/// in place by an MSD radix sort (for document order its digits come
/// from Start − 1, and ties finish on the key), so run generation needs
/// no buffer beyond the run itself. The sort uses at most `work_pages`
/// pages of working memory (>= 3) and leaves at least 3 of them to the
/// consumer (2 below 5 pages):
///  - an input that fits is sorted in memory and never written;
///  - otherwise `work_pages`-page runs are written once, (work_pages -
///    1)-way merge passes run only while more runs remain than the
///    stream may hold pinned, and the final merge streams into the
///    consumer. Each run page is written once and read once per pass;
///    no sorted copy is written.
/// That is below the textbook 2 * ||R|| * ceil(log_{b-1}(runs)) +
/// 2 * ||R|| the paper charges the sort-on-the-fly algorithms with
/// (Section 3.4.1), which also writes and re-reads the sorted copy. The
/// input file is left intact. The sort is single-threaded: the parallel
/// unit is the code-space segment, one level up (RunSegmentedJoin).
StatusOr<SortedStream> ExternalSort(BufferManager* bm, const HeapFile& input,
                                    size_t work_pages, SortOrder order);

/// Sorts several inputs that one consumer reads side by side (STACKTREE
/// reads two), within one `work_pages` budget for all the streams.
/// Which inputs stay in memory, and how many merge passes each of the
/// others makes, is planned from the record counts before any I/O so
/// that the sort writes the fewest pages; no input then writes or reads
/// more than a sort of it alone with all `work_pages` would.
StatusOr<std::vector<SortedStream>> ExternalSort(
    BufferManager* bm, std::span<const HeapFile* const> inputs,
    size_t work_pages, SortOrder order);

/// Sorts `input` into a new file, for a consumer that reads the sorted
/// data more than once (MPMGJN's descendant side): the runs merge down
/// to one, which is the result. The caller owns the file.
StatusOr<ScratchFile> SortToFile(BufferManager* bm, const HeapFile& input,
                                 size_t work_pages, SortOrder order);

}  // namespace pbitree

#endif  // PBITREE_SORT_EXTERNAL_SORT_H_
