#include "storage/heap_file.h"


namespace pbitree {

Result<HeapFile> HeapFile::Create(BufferManager* bm, PageCodecKind codec) {
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
  HeapFile f;
  f.codec_ = codec;
  f.first_page_ = p->page_id();
  f.last_page_ = p->page_id();
  f.num_pages_ = 1;
  f.pages_.push_back(p->page_id());
  SetNext(p, kInvalidPageId);
  SetCount(p, 0);
  PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), /*dirty=*/true));
  return f;
}

Result<HeapFile> HeapFile::Attach(BufferManager* bm, PageId first_page,
                                  PageCodecKind codec) {
  if (first_page == kInvalidPageId) {
    return Status::InvalidArgument("Attach: invalid first page");
  }
  HeapFile f;
  f.codec_ = codec;
  f.first_page_ = first_page;
  PageId pid = first_page;
  while (pid != kInvalidPageId) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
    f.pages_.push_back(pid);
    f.num_records_ += GetCount(p);
    ++f.num_pages_;
    f.last_page_ = pid;
    PageId next = GetNext(p);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
    pid = next;
  }
  return f;
}

Status HeapFile::Append(BufferManager* bm, const void* record) {
  Appender app(bm, this);
  PBITREE_RETURN_IF_ERROR(app.Append(record));
  return app.Finish();
}

Status HeapFile::Drop(BufferManager* bm) {
  for (PageId pid : pages_) {
    PBITREE_RETURN_IF_ERROR(bm->DeletePage(pid));
  }
  pages_.clear();
  first_page_ = kInvalidPageId;
  last_page_ = kInvalidPageId;
  num_records_ = 0;
  num_pages_ = 0;
  return Status::OK();
}

Status HeapFile::Concat(BufferManager* bm, HeapFile* tail) {
  if (!valid() || !tail->valid()) {
    return Status::InvalidArgument("Concat: invalid heap file handle");
  }
  if (codec_ != tail->codec_) {
    return Status::InvalidArgument("Concat: page codec mismatch");
  }
  {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(last_page_));
    SetNext(p, tail->first_page_);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(last_page_, /*dirty=*/true));
  }
  last_page_ = tail->last_page_;
  num_records_ += tail->num_records_;
  num_pages_ += tail->num_pages_;
  pages_.insert(pages_.end(), tail->pages_.begin(), tail->pages_.end());
  tail->first_page_ = kInvalidPageId;
  tail->last_page_ = kInvalidPageId;
  tail->num_records_ = 0;
  tail->num_pages_ = 0;
  tail->pages_.clear();
  return Status::OK();
}

Status HeapFile::ReadPageRecords(BufferManager* bm, size_t page_index,
                                 std::vector<ElementRecord>* out) const {
  if (page_index >= pages_.size()) {
    return Status::InvalidArgument("ReadPageRecords: page index out of range");
  }
  const PageId pid = pages_[page_index];
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
  const uint16_t count = GetCount(p);
  out->resize(count);
  Status st;
  if (count > 0) {
    if (codec_ == PageCodecKind::kRaw) {
      std::memcpy(out->data(), RecordAt(p, 0), count * kRecordSize);
    } else {
      st = GetPageCodec(codec_)->Decode(p->data() + kHeaderSize, count,
                                        out->data());
    }
  }
  Status ust = bm->UnpinPage(pid, false);
  return st.ok() ? ust : st;
}

Status HeapFile::RemoveRecordAt(BufferManager* bm, size_t page_index,
                                size_t slot) {
  if (page_index >= pages_.size()) {
    return Status::InvalidArgument("RemoveRecordAt: page index out of range");
  }
  const PageId pid = pages_[page_index];
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
  const uint16_t count = GetCount(p);
  if (slot >= count) {
    Status ust = bm->UnpinPage(pid, false);
    (void)ust;
    return Status::InvalidArgument("RemoveRecordAt: slot out of range");
  }
  if (codec_ == PageCodecKind::kRaw) {
    std::memmove(RecordAt(p, slot), RecordAt(p, slot + 1),
                 (count - 1 - slot) * kRecordSize);
    // Zero the vacated tail slot so re-encoding equal logical content
    // stays byte-identical (mirrors the codec Encode contract).
    std::memset(RecordAt(p, count - 1), 0, kRecordSize);
  } else {
    std::vector<ElementRecord> recs(count);
    const PageCodec* codec = GetPageCodec(codec_);
    Status st = codec->Decode(p->data() + kHeaderSize, count, recs.data());
    if (st.ok()) {
      recs.erase(recs.begin() + static_cast<ptrdiff_t>(slot));
      // A page that held `count` records always holds `count - 1` of the
      // same records (both delta and raw16 sizes are monotone in the
      // record list), so this encode cannot fail for size reasons.
      st = codec->Encode(recs, p->data() + kHeaderSize);
    }
    if (!st.ok()) {
      Status ust = bm->UnpinPage(pid, false);
      (void)ust;
      return st;
    }
  }
  SetCount(p, static_cast<uint16_t>(count - 1));
  --num_records_;
  return bm->UnpinPage(pid, /*dirty=*/true);
}

Status HeapFile::RewriteRecordAt(BufferManager* bm, size_t page_index,
                                 size_t slot, const ElementRecord& rec) {
  if (page_index >= pages_.size()) {
    return Status::InvalidArgument("RewriteRecordAt: page index out of range");
  }
  const PageId pid = pages_[page_index];
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
  const uint16_t count = GetCount(p);
  if (slot >= count) {
    Status ust = bm->UnpinPage(pid, false);
    (void)ust;
    return Status::InvalidArgument("RewriteRecordAt: slot out of range");
  }
  if (codec_ == PageCodecKind::kRaw) {
    std::memcpy(RecordAt(p, slot), &rec, kRecordSize);
  } else {
    std::vector<ElementRecord> recs(count);
    const PageCodec* codec = GetPageCodec(codec_);
    Status st = codec->Decode(p->data() + kHeaderSize, count, recs.data());
    if (st.ok()) {
      recs[slot] = rec;
      // Encode into a scratch payload first: a rewrite that no longer
      // fits (wilder deltas past the raw16 record cap) must leave the
      // page exactly as it was.
      char scratch[kCodecPayloadSize];
      st = codec->Encode(recs, scratch);
      if (st.ok()) std::memcpy(p->data() + kHeaderSize, scratch, sizeof(scratch));
    }
    if (!st.ok()) {
      Status ust = bm->UnpinPage(pid, false);
      (void)ust;
      return st;
    }
  }
  return bm->UnpinPage(pid, /*dirty=*/true);
}

Status HeapFile::Appender::EncodeTail() {
  const PageCodec* codec = GetPageCodec(file_->codec_);
  PBITREE_RETURN_IF_ERROR(
      codec->Encode(staged_, tail_->data() + kHeaderSize));
  SetCount(tail_, static_cast<uint16_t>(staged_.size()));
  return Status::OK();
}

Status HeapFile::Appender::AppendCodec(const ElementRecord& rec) {
  if (tail_ == nullptr) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm_->FetchPage(file_->last_page_));
    tail_ = p;
    // Stage what the tail page already holds so appends resume exactly
    // where the file left off (the per-record HeapFile::Append
    // convenience builds a fresh Appender every call).
    staged_.clear();
    sizer_.Reset();
    const uint16_t count = GetCount(tail_);
    if (count > 0) {
      staged_.resize(count);
      PBITREE_RETURN_IF_ERROR(GetPageCodec(file_->codec_)
                                  ->Decode(tail_->data() + kHeaderSize, count,
                                           staged_.data()));
      for (const ElementRecord& r : staged_) sizer_.Add(r);
    }
  }
  if (!sizer_.CanHold(rec)) {
    // Tail is full for this codec: encode it, chain a fresh page.
    PBITREE_RETURN_IF_ERROR(EncodeTail());
    PBITREE_ASSIGN_OR_RETURN(Page * np, bm_->NewPage());
    SetNext(np, kInvalidPageId);
    SetCount(np, 0);
    SetNext(tail_, np->page_id());
    PBITREE_RETURN_IF_ERROR(bm_->UnpinPage(tail_->page_id(), /*dirty=*/true));
    tail_ = np;
    file_->last_page_ = np->page_id();
    file_->pages_.push_back(np->page_id());
    ++file_->num_pages_;
    staged_.clear();
    sizer_.Reset();
  }
  staged_.push_back(rec);
  sizer_.Add(rec);
  ++file_->num_records_;
  return Status::OK();
}

Status HeapFile::Appender::Append(const void* record) {
  if (file_->codec_ != PageCodecKind::kRaw) {
    return AppendCodec(*static_cast<const ElementRecord*>(record));
  }
  if (tail_ == nullptr) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm_->FetchPage(file_->last_page_));
    tail_ = p;
  }
  uint16_t count = GetCount(tail_);
  if (count >= kRecordsPerPage) {
    // Tail is full: chain a fresh page.
    PBITREE_ASSIGN_OR_RETURN(Page * np, bm_->NewPage());
    SetNext(np, kInvalidPageId);
    SetCount(np, 0);
    SetNext(tail_, np->page_id());
    PBITREE_RETURN_IF_ERROR(bm_->UnpinPage(tail_->page_id(), /*dirty=*/true));
    tail_ = np;
    file_->last_page_ = np->page_id();
    file_->pages_.push_back(np->page_id());
    ++file_->num_pages_;
    count = 0;
  }
  std::memcpy(RecordAt(tail_, count), record, kRecordSize);
  SetCount(tail_, count + 1);
  ++file_->num_records_;
  return Status::OK();
}

Status HeapFile::Appender::AppendBatch(const void* records, size_t n) {
  if (file_->codec_ != PageCodecKind::kRaw) {
    const auto* recs = static_cast<const ElementRecord*>(records);
    for (size_t i = 0; i < n; ++i) {
      PBITREE_RETURN_IF_ERROR(AppendCodec(recs[i]));
    }
    return Status::OK();
  }
  const char* src = static_cast<const char*>(records);
  while (n > 0) {
    if (tail_ == nullptr) {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm_->FetchPage(file_->last_page_));
      tail_ = p;
    }
    uint16_t count = GetCount(tail_);
    if (count >= kRecordsPerPage) {
      PBITREE_ASSIGN_OR_RETURN(Page * np, bm_->NewPage());
      SetNext(np, kInvalidPageId);
      SetCount(np, 0);
      SetNext(tail_, np->page_id());
      PBITREE_RETURN_IF_ERROR(
          bm_->UnpinPage(tail_->page_id(), /*dirty=*/true));
      tail_ = np;
      file_->last_page_ = np->page_id();
      file_->pages_.push_back(np->page_id());
      ++file_->num_pages_;
      count = 0;
    }
    const size_t room = kRecordsPerPage - count;
    const size_t m = n < room ? n : room;
    std::memcpy(RecordAt(tail_, count), src, m * kRecordSize);
    SetCount(tail_, static_cast<uint16_t>(count + m));
    file_->num_records_ += m;
    src += m * kRecordSize;
    n -= m;
  }
  return Status::OK();
}

Status HeapFile::Appender::Finish() {
  if (tail_ != nullptr) {
    if (file_->codec_ != PageCodecKind::kRaw) {
      Status est = EncodeTail();
      if (status_.ok()) status_ = est;
    }
    Status st = bm_->UnpinPage(tail_->page_id(), /*dirty=*/true);
    if (status_.ok()) status_ = st;
    tail_ = nullptr;
  }
  return status_;
}

size_t HeapFile::Scanner::FillPage() {
  while (true) {
    if (cur_ != nullptr) {
      if (cur_index_ < cur_count_) return cur_count_ - cur_index_;
      Status st = bm_->UnpinPage(cur_->page_id(), false);
      if (status_.ok()) status_ = st;
      cur_ = nullptr;
    }
    if (!status_.ok() || next_page_ == kInvalidPageId) return 0;
    auto res = bm_->FetchPage(next_page_);
    if (!res.ok()) {
      status_ = res.status();
      return 0;
    }
    cur_ = res.value();
    cur_index_ = 0;
    cur_count_ = GetCount(cur_);
    next_page_ = GetNext(cur_);
    if (codec_ != PageCodecKind::kRaw && cur_count_ > 0) {
      const PageCodec* codec = GetPageCodec(codec_);
      if (decode_buf_ == nullptr) {
        decode_buf_ = std::make_unique<ElementRecord[]>(codec->max_records());
      }
      if (cur_count_ > codec->max_records()) {
        status_ = Status::Corruption("heap page count exceeds codec maximum");
      } else {
        status_ = codec->Decode(cur_->data() + kHeaderSize, cur_count_,
                                decode_buf_.get());
      }
      if (!status_.ok()) {
        Status st = bm_->UnpinPage(cur_->page_id(), false);
        (void)st;  // the decode error wins
        cur_ = nullptr;
        return 0;
      }
    }
  }
}

bool HeapFile::Scanner::Next(void* out, Status* status) {
  size_t avail = FillPage();
  if (status != nullptr) *status = status_;
  if (avail == 0) return false;
  std::memcpy(out, CurRecordBase(cur_index_), kRecordSize);
  ++cur_index_;
  return true;
}

void HeapFile::Scanner::Close() {
  if (cur_ != nullptr) {
    bm_->UnpinPage(cur_->page_id(), false);
    cur_ = nullptr;
  }
  next_page_ = kInvalidPageId;
}

}  // namespace pbitree
