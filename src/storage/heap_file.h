#ifndef PBITREE_STORAGE_HEAP_FILE_H_
#define PBITREE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_codec.h"
#include "storage/record.h"

namespace pbitree {

/// \brief Page-chained file of fixed 16-byte records (elements or result
/// pairs) — the Minibase heap-file stand-in.
///
/// All record traffic goes through the buffer manager, so scans and
/// appends are charged exactly one physical I/O per page miss. The file
/// handle itself (first/last page, counts) is an in-memory value object;
/// copying the handle aliases the same on-disk pages.
///
/// A file is created with a PageCodecKind that fixes how its pages'
/// record areas are encoded (see page_codec.h). kRaw keeps the seed
/// layout and the zero-copy scan path byte for byte; other codecs
/// decode each page into a per-scanner buffer as it is fetched, and the
/// Appender stages the tail page's records in memory, encoding them
/// when the page fills or on Finish. The codec is a property of the
/// whole file; the handle carries it, and re-attaching (Catalog) must
/// pass the same kind it was created with. Non-raw codecs only make
/// sense for ElementRecord files (the encoder reads tag/doc fields) —
/// pair/spill/temp files stay raw.
class HeapFile {
 public:
  static constexpr size_t kRecordSize = 16;
  /// Page layout: u32 next page id, u16 record count, u16 pad, records.
  static constexpr size_t kHeaderSize = 8;
  static constexpr size_t kRecordsPerPage = (kPageSize - kHeaderSize) / kRecordSize;

  HeapFile() = default;

  /// Creates an empty file (allocates its first page).
  static Result<HeapFile> Create(BufferManager* bm,
                                 PageCodecKind codec = PageCodecKind::kRaw);

  /// Re-attaches a handle to an existing on-disk file (e.g. after a
  /// catalog load) by walking its page chain to rebuild the directory
  /// and the counts. Costs one read per page. `codec` must be the kind
  /// the file was created with (the Catalog records it as a flag) —
  /// page headers hold logical record counts, so the walk itself is
  /// codec-agnostic.
  static Result<HeapFile> Attach(BufferManager* bm, PageId first_page,
                                 PageCodecKind codec = PageCodecKind::kRaw);

  bool valid() const { return first_page_ != kInvalidPageId; }
  PageId first_page() const { return first_page_; }
  PageCodecKind codec() const { return codec_; }
  uint64_t num_records() const { return num_records_; }
  /// ||R|| in the paper's notation: number of disk pages.
  uint64_t num_pages() const { return num_pages_; }

  /// Page directory in chain order — the `page_index` coordinate of the
  /// record-surgery API below (and of mutation-batch page tracking).
  const std::vector<PageId>& pages() const { return pages_; }

  /// Decodes every record of page `page_index` into `out` (resized to
  /// the page's logical count; possibly 0).
  Status ReadPageRecords(BufferManager* bm, size_t page_index,
                         std::vector<ElementRecord>* out) const;

  /// Removes the record at (page_index, slot), compacting the page in
  /// place: later records of that page shift left one slot, the page's
  /// count drops by one, and an emptied page stays chained (scanners
  /// skip count-0 pages). The relative scan order of every surviving
  /// record of the file is unchanged — what the differential update
  /// tests rely on.
  Status RemoveRecordAt(BufferManager* bm, size_t page_index, size_t slot);

  /// Overwrites the record at (page_index, slot) in place (used by the
  /// re-binarization fallback to recode elements without moving them).
  /// For a non-raw codec the page is re-encoded; if the new record makes
  /// the page overflow its codec capacity the page is left untouched and
  /// InvalidArgument is returned (the caller rolls the batch back).
  Status RewriteRecordAt(BufferManager* bm, size_t page_index, size_t slot,
                         const ElementRecord& rec);

  /// Appends one record. Amortised one page write per kRecordsPerPage
  /// appends. Prefer Appender for bulk loading (keeps the tail pinned).
  Status Append(BufferManager* bm, const void* record);

  /// Frees every page of the file. The handle becomes invalid. O(1)
  /// page I/O: the page list is kept in the handle (a heap-file
  /// directory), so no chain walk is needed.
  Status Drop(BufferManager* bm);

  /// Appends the pages of `tail` to this file (O(1) page I/O: links the
  /// chains and merges the directories). `tail` becomes invalid. Used
  /// by VPJ partition merging. Both files must use the same page codec
  /// (pages are adopted as-is, not re-encoded).
  Status Concat(BufferManager* bm, HeapFile* tail);

  /// \brief Bulk appender holding the tail page pinned between calls.
  class Appender {
   public:
    Appender(BufferManager* bm, HeapFile* file) : bm_(bm), file_(file) {}
    ~Appender() { Finish(); }

    Appender(const Appender&) = delete;
    Appender& operator=(const Appender&) = delete;

    Status Append(const void* record);
    Status AppendElement(const ElementRecord& rec) { return Append(&rec); }
    Status AppendPair(const ResultPair& rec) { return Append(&rec); }

    /// Appends `n` contiguous 16-byte records, copying page-sized
    /// chunks at a time. Produces exactly the page layout `n` single
    /// Append calls would (same record placement, same chained pages).
    Status AppendBatch(const void* records, size_t n);
    Status AppendElements(std::span<const ElementRecord> recs) {
      return AppendBatch(recs.data(), recs.size());
    }
    Status AppendPairs(std::span<const ResultPair> recs) {
      return AppendBatch(recs.data(), recs.size());
    }

    /// Unpins the tail page, making the appended records safe to read.
    /// Returns the first error the appender latched (a failed tail
    /// unpin would otherwise vanish on the destructor path). Idempotent:
    /// later calls return the same latched status. Called automatically
    /// on destruction, where the result is necessarily dropped — call
    /// it explicitly wherever the error must propagate.
    Status Finish();

   private:
    /// Non-raw append path: stages the tail page's records in memory
    /// (decoding what the page already held on first use) and encodes
    /// on page-full / Finish. Admission is O(1) via FoRDeltaSizer.
    Status AppendCodec(const ElementRecord& rec);

    /// Encodes the staged records into the pinned tail page and stamps
    /// its logical count.
    Status EncodeTail();

    BufferManager* bm_;
    HeapFile* file_;
    Page* tail_ = nullptr;
    /// Codec staging state (unused for kRaw files).
    std::vector<ElementRecord> staged_;
    FoRDeltaSizer sizer_;
    Status status_;
  };

  /// \brief Forward scanner over all records of the file.
  ///
  /// Holds at most one page pinned at a time. The first I/O error ends
  /// the scan and is latched in status(); every Next* overload also
  /// reports it through the optional `status` out-parameter.
  class Scanner {
   public:
    Scanner(BufferManager* bm, const HeapFile& file)
        : bm_(bm), next_page_(file.first_page_), codec_(file.codec_) {}
    ~Scanner() { Close(); }

    Scanner(const Scanner&) = delete;
    Scanner& operator=(const Scanner&) = delete;

    /// Copies the next record into `out`; returns false at end of file
    /// or on error. `status` (optional) receives the scan status; the
    /// same information is always available via status().
    bool Next(void* out, Status* status = nullptr);

    bool NextElement(ElementRecord* out, Status* status = nullptr) {
      return Next(out, status);
    }
    bool NextPair(ResultPair* out, Status* status = nullptr) {
      return Next(out, status);
    }

    /// Zero-copy batch scan: returns a view over the not-yet-consumed
    /// records of the current page (fetching the next chained page when
    /// the current one is exhausted) and marks them consumed. The span
    /// aliases the pinned buffer-pool frame — or, for a non-raw codec,
    /// the scanner's own 16-byte-aligned decode buffer — and is
    /// invalidated by the next NextBatch/Next/Close call; consume it
    /// before advancing. Empty span at end of file or on error (check
    /// status()).
    std::span<const ElementRecord> NextElementBatch() {
      return NextBatch<ElementRecord>();
    }
    std::span<const ResultPair> NextPairBatch() {
      return NextBatch<ResultPair>();
    }

    /// First error this scan hit; OK while none. Latched: once set, the
    /// scan is over and every further call returns end-of-file.
    const Status& status() const { return status_; }

    void Close();

   private:
    template <typename Record>
    std::span<const Record> NextBatch() {
      static_assert(std::is_trivially_copyable_v<Record> &&
                    sizeof(Record) == kRecordSize);
      size_t n = FillPage();
      if (n == 0) return {};
      // In-place view of the record area: records are written with
      // memcpy (implicit-lifetime types), the page header / decode
      // buffer keeps them 8-byte aligned, so the cast is sound.
      const Record* base =
          reinterpret_cast<const Record*>(CurRecordBase(cur_index_));
      cur_index_ = cur_count_;
      return {base, n};
    }

    /// Address of record `i` of the current page: inside the pinned
    /// frame for raw files, inside the decode buffer otherwise.
    const char* CurRecordBase(size_t i) const {
      return codec_ == PageCodecKind::kRaw
                 ? RecordAt(cur_, i)
                 : reinterpret_cast<const char*>(decode_buf_.get() + i);
    }

    /// Ensures the current page has unread records, chaining to the
    /// next page as needed. Returns how many are available (0 at end of
    /// file or after an error was latched).
    size_t FillPage();

    BufferManager* bm_;
    PageId next_page_;
    PageCodecKind codec_ = PageCodecKind::kRaw;
    Page* cur_ = nullptr;
    size_t cur_index_ = 0;
    size_t cur_count_ = 0;
    /// Per-scanner decode target for non-raw codecs, allocated on the
    /// first page fetch (sized for the codec's max_records). Lives as
    /// long as the scanner, so spans into it obey the same lifetime
    /// rule as spans into the pinned frame.
    std::unique_ptr<ElementRecord[]> decode_buf_;
    Status status_;
  };

  /// \brief Record-at-a-time cursor layered on the batch scan: merge
  /// loops (stack-tree, external sort) read rec() straight from the
  /// pinned page with no per-record copy or status round-trip.
  ///
  /// rec() is valid until the next Advance()/destruction. A cursor that
  /// went dead (live() == false) either hit end of file (status() OK)
  /// or an I/O error (status() latched).
  class BatchCursor {
   public:
    BatchCursor(BufferManager* bm, const HeapFile& file) : scan_(bm, file) {
      batch_ = scan_.NextElementBatch();
    }

    bool live() const { return index_ < batch_.size(); }
    const ElementRecord& rec() const { return batch_[index_]; }

    void Advance() {
      if (++index_ >= batch_.size()) {
        batch_ = scan_.NextElementBatch();
        index_ = 0;
      }
    }

    const Status& status() const { return scan_.status(); }

   private:
    Scanner scan_;
    std::span<const ElementRecord> batch_;
    size_t index_ = 0;
  };

 private:
  friend class Appender;

  static PageId GetNext(const Page* p) {
    PageId v;
    std::memcpy(&v, p->data(), sizeof(v));
    return v;
  }
  static void SetNext(Page* p, PageId v) { std::memcpy(p->data(), &v, sizeof(v)); }
  static uint16_t GetCount(const Page* p) {
    uint16_t v;
    std::memcpy(&v, p->data() + 4, sizeof(v));
    return v;
  }
  static void SetCount(Page* p, uint16_t v) {
    std::memcpy(p->data() + 4, &v, sizeof(v));
  }
  static char* RecordAt(Page* p, size_t i) {
    return p->data() + kHeaderSize + i * kRecordSize;
  }
  static const char* RecordAt(const Page* p, size_t i) {
    return p->data() + kHeaderSize + i * kRecordSize;
  }

  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  PageCodecKind codec_ = PageCodecKind::kRaw;
  uint64_t num_records_ = 0;
  uint64_t num_pages_ = 0;
  std::vector<PageId> pages_;  // directory of all pages, in chain order
};

// The zero-copy batch view relies on record rows starting at an
// 8-byte-aligned offset inside the (8-byte-aligned) page frame.
static_assert(HeapFile::kHeaderSize % alignof(ElementRecord) == 0);
static_assert(HeapFile::kHeaderSize % alignof(ResultPair) == 0);
// page_codec.h's payload constant must mirror the page header.
static_assert(kCodecPayloadSize == kPageSize - HeapFile::kHeaderSize);

}  // namespace pbitree

#endif  // PBITREE_STORAGE_HEAP_FILE_H_
