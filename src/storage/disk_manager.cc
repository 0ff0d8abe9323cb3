#include "storage/disk_manager.h"

#include <chrono>
#include <thread>

#include "common/crc32c.h"
#include "obs/metrics.h"

namespace pbitree {

namespace {

/// Wraps `backend` in a FaultInjectingBackend when PBITREE_FAULT_SCHEDULE
/// is set — every database opened by this process then runs against the
/// same deterministic fault schedule (how CI exercises the whole test
/// suite under transient faults).
std::unique_ptr<IoBackend> MaybeInjectFaults(std::unique_ptr<IoBackend> backend) {
  if (auto schedule = FaultSchedule::FromEnv()) {
    return std::make_unique<FaultInjectingBackend>(std::move(backend),
                                                   *schedule);
  }
  return backend;
}

}  // namespace

DiskManager::DiskManager(std::unique_ptr<IoBackend> backend)
    : backend_(std::move(backend)) {
  is_free_.resize(1, false);  // header page
}

StatusOr<DiskManager*> DiskManager::Open(const std::string& path) {
  auto backend = FileIoBackend::Open(path, /*truncate=*/true,
                                     /*unlink_on_close=*/true);
  PBITREE_RETURN_IF_ERROR(backend.status());
  return new DiskManager(MaybeInjectFaults(std::move(*backend)));
}

StatusOr<DiskManager*> DiskManager::OpenExisting(const std::string& path) {
  auto backend = FileIoBackend::Open(path, /*truncate=*/false,
                                     /*unlink_on_close=*/false);
  PBITREE_RETURN_IF_ERROR(backend.status());
  return OpenWithBackend(std::move(*backend), /*restore_frontier=*/true);
}

DiskManager* DiskManager::OpenInMemory() {
  return new DiskManager(MaybeInjectFaults(std::make_unique<MemIoBackend>()));
}

StatusOr<DiskManager*> DiskManager::OpenWithBackend(
    std::unique_ptr<IoBackend> backend, bool restore_frontier) {
  // Make every existing page addressable; the catalog narrows this to
  // the recorded frontier afterwards.
  PageId size = 0;
  if (restore_frontier) {
    auto pages = backend->SizeInPages();
    PBITREE_RETURN_IF_ERROR(pages.status());
    size = *pages;
  }
  auto* dm = new DiskManager(MaybeInjectFaults(std::move(backend)));
  if (size > 0) dm->SetFrontier(size);
  return dm;
}

DiskManager::~DiskManager() = default;

void DiskManager::SetFrontier(PageId frontier) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  if (frontier > next_page_id_.load(std::memory_order_relaxed)) {
    next_page_id_.store(frontier, std::memory_order_release);
    if (is_free_.size() < frontier) is_free_.resize(frontier, false);
  }
}

StatusOr<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  PageId id;
  bool reused = false;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    is_free_[id] = false;
    reused = true;
  } else {
    id = next_page_id_.load(std::memory_order_relaxed);
    if (id == kInvalidPageId) {
      return Status::ResourceExhausted("page id space exhausted");
    }
    next_page_id_.store(id + 1, std::memory_order_release);
    if (is_free_.size() <= id) is_free_.resize(id + 1, false);
  }
  Status bs = backend_->Allocate(id);
  if (!bs.ok()) {
    // Roll back so a later attempt can hand out the same id.
    if (reused) {
      is_free_[id] = true;
      free_list_.push_back(id);
    } else {
      next_page_id_.store(id, std::memory_order_release);
    }
    return bs;
  }
  stats_.pages_allocated.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kPagesAllocated);
  return id;
}

Status DiskManager::FreePage(PageId page_id) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  if (page_id == 0 ||
      page_id >= next_page_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("FreePage: bad page id " +
                                   std::to_string(page_id));
  }
  if (is_free_[page_id]) {
    return Status::InvalidArgument("FreePage: double free of page " +
                                   std::to_string(page_id));
  }
  PBITREE_RETURN_IF_ERROR(backend_->Free(page_id));
  is_free_[page_id] = true;
  free_list_.push_back(page_id);
  stats_.pages_freed.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kPagesFreed);
  {
    // A reused page id must not inherit the old occupant's checksum.
    std::unique_lock<std::shared_mutex> lk2(crc_mu_);
    page_crc_.erase(page_id);
  }
  return Status::OK();
}

Status DiskManager::WithRetry(const char* what, PageId page_id,
                              const std::function<Status()>& op) {
  Status s;
  uint32_t backoff_us = retry_.backoff_initial_us;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      obs::Count(obs::Counter::kIoRetries);
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us = std::min(backoff_us * 2, retry_.backoff_max_us);
      }
    }
    s = op();
    // Retry only transient-looking failures; kCorruption means the
    // bytes arrived and are wrong — re-reading returns the same bytes.
    if (s.ok() || s.code() != StatusCode::kIOError) return s;
  }
  return Status::RetryExhausted(std::string(what) + " of page " +
                                std::to_string(page_id) + " failed after " +
                                std::to_string(retry_.max_attempts) +
                                " attempts: " + s.ToString());
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  if (page_id >= frontier()) {
    return Status::OutOfRange("ReadPage: page " + std::to_string(page_id) +
                              " beyond frontier");
  }
  // Logical page reads count once per call regardless of retries, so
  // I/O-count experiments are unchanged by the retry layer.
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kPageReads);
  uint32_t expected = 0;
  bool have_crc = false;
  {
    std::shared_lock<std::shared_mutex> lk(crc_mu_);
    auto it = page_crc_.find(page_id);
    if (it != page_crc_.end()) {
      expected = it->second;
      have_crc = true;
    }
  }

  return WithRetry("read", page_id, [&]() -> Status {
    PBITREE_RETURN_IF_ERROR(backend_->ReadPage(page_id, out));
    // No recorded checksum (never written by this process, e.g. a page
    // from a reopened database or one allocated but not yet written):
    // nothing to verify against.
    if (have_crc && Crc32c(out, kPageSize) != expected) {
      obs::Count(obs::Counter::kIoChecksumFailures);
      return Status::Corruption("checksum mismatch on page " +
                                std::to_string(page_id) +
                                " (torn or corrupted write)");
    }
    return Status::OK();
  });
}

Status DiskManager::WritePage(PageId page_id, const char* in) {
  if (page_id >= frontier()) {
    return Status::OutOfRange("WritePage: page " + std::to_string(page_id) +
                              " beyond frontier");
  }
  stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kPageWrites);

  Status s = WithRetry("write", page_id,
                       [&] { return backend_->WritePage(page_id, in); });
  std::unique_lock<std::shared_mutex> lk(crc_mu_);
  if (s.ok()) {
    page_crc_[page_id] = Crc32c(in, kPageSize);
  } else {
    // The page's on-store content is now unknown; drop any stale entry
    // rather than flag a later (possibly fine) read as corruption.
    page_crc_.erase(page_id);
  }
  return s;
}

Status DiskManager::Sync() { return backend_->Sync(); }

}  // namespace pbitree
