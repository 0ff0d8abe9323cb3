#include "storage/buffer_manager.h"

#include <cassert>
#include <cstring>

#include "obs/metrics.h"

namespace pbitree {

BufferManager::BufferManager(DiskManager* disk, size_t pool_pages)
    : disk_(disk) {
  assert(pool_pages >= 3 && "joins need at least 3 buffer pages");
  frames_.reserve(pool_pages);
  for (size_t i = 0; i < pool_pages; ++i) {
    frames_.push_back(std::make_unique<Page>());
  }
  page_table_.reserve(pool_pages * 2);
}

BufferManager::~BufferManager() { FlushAll(); }

Result<size_t> BufferManager::FindVictimLocked() {
  // Classic clock sweep: skip pinned frames, clear reference bits, take
  // the first unreferenced unpinned frame. Two full sweeps guarantee
  // termination when any frame is unpinned. Frames mid-transfer are
  // held by io_pending_.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Page* f = frames_[clock_hand_].get();
    size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f->pin_count_ > 0 || f->io_pending_) continue;
    if (f->referenced_) {
      f->referenced_ = false;
      continue;
    }
    return idx;
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

Result<size_t> BufferManager::AcquireVictimLocked(
    std::unique_lock<std::mutex>& lk) {
  for (;;) {
    auto victim = FindVictimLocked();
    if (victim.ok()) return victim;
    bool in_transfer = false;
    for (const auto& frame : frames_) {
      if (frame->io_pending_) {
        in_transfer = true;
        break;
      }
    }
    if (!in_transfer) return victim;  // truly all pinned
    obs::LatencyTimer io_wait(obs::Latency::kIoWait);
    io_cv_.wait(lk);
    io_wait.Finish();
  }
}

PageId BufferManager::DetachFrameLocked(size_t idx) {
  Page* f = frames_[idx].get();
  if (f->page_id_ == kInvalidPageId) return kInvalidPageId;
  page_table_.erase(f->page_id_);
  ++stats_.evictions;
  obs::Count(obs::Counter::kBufEvictions);
  if (!f->is_dirty_) return kInvalidPageId;
  ++stats_.dirty_writes;
  obs::Count(obs::Counter::kBufDirtyWrites);
  return f->page_id_;
}

Result<Page*> BufferManager::FetchPage(PageId page_id) {
  obs::LatencyTimer latch_wait(obs::Latency::kLatchWait);
  std::unique_lock<std::mutex> lk(latch_);
  latch_wait.Finish();
  ++stats_.fetches;
  obs::Count(obs::Counter::kBufFetches);
  size_t idx;
  for (;;) {
    auto it = page_table_.find(page_id);
    if (it == page_table_.end()) {
      if (writebacks_.count(page_id) == 0) {
        auto victim = AcquireVictimLocked(lk);
        if (!victim.ok()) {
          ++stats_.misses;
          obs::Count(obs::Counter::kBufMisses);
          return victim.status();
        }
        // The wait inside AcquireVictimLocked releases the latch, so
        // the page may have been installed (or started write-back)
        // meanwhile; commit the miss only if it is still absent.
        if (page_table_.count(page_id) != 0 ||
            writebacks_.count(page_id) != 0) {
          continue;
        }
        idx = *victim;
        break;
      }
      // The page was just evicted dirty and its newest bytes are still
      // in flight to disk. Reading it back now would return the stale
      // on-disk copy (and race the write on the in-memory backend), so
      // wait for the write-back to land, then re-probe.
      obs::LatencyTimer io_wait(obs::Latency::kIoWait);
      io_cv_.wait(lk);
      io_wait.Finish();
      continue;
    }
    Page* f = frames_[it->second].get();
    if (f->io_pending_) {
      // Another thread is transferring this page; wait for the frame
      // latch to clear, then re-probe (the transfer may have failed and
      // removed the mapping).
      obs::LatencyTimer io_wait(obs::Latency::kIoWait);
      io_cv_.wait(lk);
      io_wait.Finish();
      continue;
    }
    ++stats_.hits;
    obs::Count(obs::Counter::kBufHits);
    ++f->pin_count_;
    f->referenced_ = true;
    return f;
  }
  ++stats_.misses;
  obs::Count(obs::Counter::kBufMisses);
  Page* f = frames_[idx].get();
  const PageId write_back = DetachFrameLocked(idx);
  if (write_back != kInvalidPageId) writebacks_.insert(write_back);
  f->page_id_ = page_id;
  f->pin_count_ = 1;
  f->is_dirty_ = false;
  f->referenced_ = true;
  f->io_pending_ = true;
  page_table_[page_id] = idx;
  lk.unlock();

  // The transfer runs outside the pool latch: the frame is reachable
  // only through the new mapping, which io_pending_ blocks, so other
  // threads fetch other pages concurrently. A dirty victim's bytes are
  // still in the frame and are written here, before the read replaces
  // them; the victim's id stays in writebacks_ until its write lands.
  Status st;
  if (write_back != kInvalidPageId) {
    obs::LatencyTimer io_wait(obs::Latency::kIoWait);
    st = disk_->WritePage(write_back, f->data_);
    io_wait.Finish();
  }
  if (st.ok()) {
    obs::LatencyTimer io_wait(obs::Latency::kIoWait);
    st = disk_->ReadPage(page_id, f->data_);
    io_wait.Finish();
  }

  lk.lock();
  f->io_pending_ = false;
  if (write_back != kInvalidPageId) writebacks_.erase(write_back);
  if (!st.ok()) {
    page_table_.erase(page_id);
    f->Reset();
    io_cv_.notify_all();
    return st;
  }
  io_cv_.notify_all();
  return f;
}

Result<Page*> BufferManager::NewPage() {
  PBITREE_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  std::unique_lock<std::mutex> lk(latch_);
  PBITREE_ASSIGN_OR_RETURN(size_t idx, AcquireVictimLocked(lk));
  Page* f = frames_[idx].get();
  const PageId write_back = DetachFrameLocked(idx);
  if (write_back != kInvalidPageId) writebacks_.insert(write_back);
  f->page_id_ = page_id;
  f->pin_count_ = 1;
  f->is_dirty_ = false;  // set after the frame is cleaned
  f->referenced_ = true;
  f->io_pending_ = true;
  page_table_[page_id] = idx;
  lk.unlock();

  Status st;
  if (write_back != kInvalidPageId) {
    obs::LatencyTimer io_wait(obs::Latency::kIoWait);
    st = disk_->WritePage(write_back, f->data_);
    io_wait.Finish();
  }
  std::memset(f->data_, 0, kPageSize);

  lk.lock();
  f->io_pending_ = false;
  if (write_back != kInvalidPageId) writebacks_.erase(write_back);
  if (!st.ok()) {
    page_table_.erase(page_id);
    f->Reset();
    (void)disk_->FreePage(page_id);  // don't leak the fresh id
    io_cv_.notify_all();
    return st;
  }
  f->is_dirty_ = true;  // a new page must reach disk even if untouched
  io_cv_.notify_all();
  return f;
}

Status BufferManager::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lk(latch_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("UnpinPage: page " + std::to_string(page_id) +
                            " not in pool");
  }
  Page* f = frames_[it->second].get();
  if (f->pin_count_ <= 0) {
    return Status::Internal("UnpinPage: page " + std::to_string(page_id) +
                            " not pinned");
  }
  --f->pin_count_;
  if (dirty) f->is_dirty_ = true;
  return Status::OK();
}

Status BufferManager::FlushPage(PageId page_id) {
  std::unique_lock<std::mutex> lk(latch_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return Status::OK();
  Page* f = frames_[it->second].get();
  while (f->io_pending_) {
    obs::LatencyTimer io_wait(obs::Latency::kIoWait);
    io_cv_.wait(lk);
    io_wait.Finish();
  }
  if (f->page_id_ != page_id) return Status::OK();  // evicted meanwhile
  if (f->is_dirty_) {
    PBITREE_RETURN_IF_ERROR(disk_->WritePage(f->page_id_, f->data_));
    ++stats_.dirty_writes;
    obs::Count(obs::Counter::kBufDirtyWrites);
    f->is_dirty_ = false;
  }
  return Status::OK();
}

Status BufferManager::FlushAll() {
  std::unique_lock<std::mutex> lk(latch_);
  for (auto& frame : frames_) {
    // An eviction write-back runs under the io_pending_ of the frame
    // that took the victim's place, so this wait settles it too.
    Page* f = frame.get();
    while (f->io_pending_) {
      obs::LatencyTimer io_wait(obs::Latency::kIoWait);
      io_cv_.wait(lk);
      io_wait.Finish();
    }
    if (f->page_id_ != kInvalidPageId && f->is_dirty_) {
      PBITREE_RETURN_IF_ERROR(disk_->WritePage(f->page_id_, f->data_));
      ++stats_.dirty_writes;
      obs::Count(obs::Counter::kBufDirtyWrites);
      f->is_dirty_ = false;
    }
  }
  return Status::OK();
}

Status BufferManager::PurgeAll() {
  PBITREE_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> lk(latch_);
  for (auto& frame : frames_) {
    Page* f = frame.get();
    if (f->page_id_ == kInvalidPageId) continue;
    if (f->pin_count_ > 0) {
      return Status::InvalidArgument("PurgeAll: page " +
                                     std::to_string(f->page_id_) +
                                     " is pinned");
    }
    page_table_.erase(f->page_id_);
    f->Reset();
  }
  return Status::OK();
}

void BufferManager::DiscardAll() {
  std::unique_lock<std::mutex> lk(latch_);
  // Let in-flight transfers land first: the threads running them hold
  // raw frame pointers, so the frames must not be reset under them.
  // The writes they complete count as "reached the device before the
  // crash" — a subset of writes landing is exactly the scenario this
  // simulates.
  auto quiescent = [&] {
    for (const auto& frame : frames_) {
      if (frame->io_pending_) return false;
    }
    return true;
  };
  while (!quiescent()) io_cv_.wait(lk);
  for (auto& frame : frames_) frame->Reset();
  page_table_.clear();
  clock_hand_ = 0;
}

Status BufferManager::DeletePage(PageId page_id) {
  std::unique_lock<std::mutex> lk(latch_);
  for (;;) {
    // Never free a page whose evicted dirty copy is still being
    // written back: a recycled id could then be clobbered by the
    // in-flight write. Wait the write-back out, then re-probe (the
    // page may have been re-fetched meanwhile).
    if (writebacks_.count(page_id) != 0) {
      obs::LatencyTimer io_wait(obs::Latency::kIoWait);
      io_cv_.wait(lk);
      io_wait.Finish();
      continue;
    }
    auto it = page_table_.find(page_id);
    if (it == page_table_.end()) break;
    Page* f = frames_[it->second].get();
    if (f->io_pending_) {
      obs::LatencyTimer io_wait(obs::Latency::kIoWait);
      io_cv_.wait(lk);
      io_wait.Finish();
      continue;
    }
    if (f->pin_count_ > 0) {
      return Status::InvalidArgument("DeletePage: page " +
                                     std::to_string(page_id) + " is pinned");
    }
    page_table_.erase(page_id);
    f->Reset();
    break;
  }
  return disk_->FreePage(page_id);
}

size_t BufferManager::PinnedFrames() const {
  std::lock_guard<std::mutex> lk(latch_);
  size_t n = 0;
  for (const auto& frame : frames_) {
    if (frame->pin_count_ > 0) ++n;
  }
  return n;
}

}  // namespace pbitree
