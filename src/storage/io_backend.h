#ifndef PBITREE_STORAGE_IO_BACKEND_H_
#define PBITREE_STORAGE_IO_BACKEND_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/page.h"

namespace pbitree {

/// \brief The narrow, exchangeable storage contract the rest of the
/// system builds on: whole-page transfer plus capacity hooks, every
/// operation returning Status.
///
/// The DiskManager owns exactly one IoBackend and layers allocation
/// (free list, frontier), per-page CRC32C checksum verification and a
/// bounded-retry policy on top; nothing above the DiskManager ever
/// talks to a backend directly. Backends are failure-prone by design —
/// a production deployment assumes I/O fails and writes tear — and the
/// FaultInjectingBackend decorator turns that assumption into a
/// deterministic, testable schedule.
///
/// Thread safety: ReadPage/WritePage may be called concurrently (the
/// buffer manager performs page transfers outside its pool latch);
/// Allocate/Free arrive under the DiskManager's allocation lock.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  /// Human-readable backend kind ("file", "mem", "fault(...)").
  virtual const char* name() const = 0;

  /// Reads exactly kPageSize bytes of page `id` into `out`. A page that
  /// was allocated but never written reads as zeroes.
  virtual Status ReadPage(PageId id, char* out) = 0;

  /// Writes exactly kPageSize bytes from `in` to page `id`.
  virtual Status WritePage(PageId id, const char* in) = 0;

  /// Capacity hook: `id` was handed out by the allocator. Backends may
  /// use it to grow their store eagerly; the default lazily grows on
  /// first write instead.
  virtual Status Allocate(PageId id) = 0;

  /// Capacity hook: `id` was returned to the allocator's free pool.
  virtual Status Free(PageId id) = 0;

  /// Durability barrier: pages written before Sync survive a crash
  /// after it (fsync for the file backend, no-op for memory).
  virtual Status Sync() = 0;

  /// Number of pages the persistent store currently holds — what
  /// DiskManager::OpenWithBackend uses to restore the allocation
  /// frontier. Zero for non-persistent backends.
  virtual StatusOr<PageId> SizeInPages() { return PageId{0}; }
};

namespace io_internal {

/// Signatures of the positional transfer primitives (`::pread`-shaped
/// minus the fd), injectable so the resumption loops below are testable
/// against scripted short transfers and EINTR without a real device.
using PReadFn = std::function<ssize_t(char* buf, size_t n, off_t off)>;
using PWriteFn = std::function<ssize_t(const char* buf, size_t n, off_t off)>;

/// Reads exactly `n` bytes at `off`, resuming after short reads and
/// retrying EINTR. A true end of file (the primitive returns 0) is not
/// an error: the unread tail is zero-filled — the "allocated but never
/// written" page contract. Any other failure is an IOError carrying the
/// primitive's errno.
Status ReadFullAt(const PReadFn& pread_fn, const char* what, char* buf,
                  size_t n, off_t off);

/// Writes exactly `n` bytes at `off`, resuming after short writes and
/// retrying EINTR. A primitive that reports zero progress on a nonzero
/// request is an error (looping on it would spin forever).
Status WriteFullAt(const PWriteFn& pwrite_fn, const char* what,
                   const char* buf, size_t n, off_t off);

}  // namespace io_internal

/// \brief Durable file-backed backend (pread/pwrite on one fd).
class FileIoBackend : public IoBackend {
 public:
  /// Opens `path`, truncating when `truncate` is set (scratch database)
  /// and keeping existing bytes otherwise (persistent database). With
  /// `unlink_on_close` the file is removed on destruction.
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path,
                                                   bool truncate,
                                                   bool unlink_on_close);

  ~FileIoBackend() override;

  const char* name() const override { return "file"; }
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* in) override;
  Status Allocate(PageId) override { return Status::OK(); }
  Status Free(PageId) override { return Status::OK(); }
  Status Sync() override;
  StatusOr<PageId> SizeInPages() override;

 private:
  FileIoBackend(std::string path, int fd, bool unlink_on_close)
      : path_(std::move(path)), fd_(fd), unlink_on_close_(unlink_on_close) {}

  std::string path_;
  int fd_;
  bool unlink_on_close_;
};

/// \brief Volatile in-memory backend — the default substrate for tests
/// and benchmarks (every transfer still counts as physical I/O upstream,
/// emulating the paper's raw-disk Minibase setup without OS cache
/// interference).
class MemIoBackend : public IoBackend {
 public:
  const char* name() const override { return "mem"; }
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* in) override;
  Status Allocate(PageId) override { return Status::OK(); }
  Status Free(PageId) override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }

 private:
  /// Page transfers take the lock shared; capacity growth exclusive.
  std::shared_mutex mu_;
  std::vector<char> mem_;
};

/// \brief Deterministic, seedable fault schedule for the
/// FaultInjectingBackend decorator.
///
/// Triggers are counter-based ("every Nth read/write") and/or
/// probability-based (seeded xoshiro — identical seed, identical fault
/// sequence). A triggered fault manifests as:
///  - `transient > 0`: the faulted attempt and the next `transient - 1`
///    attempts of the same kind fail with kIOError, then operations
///    succeed again — a fault the retry layer absorbs.
///  - `transient == 0` (sticky): once triggered, every later operation
///    of that kind fails — a permanent device failure.
///  - `torn_writes`: a triggered *write* does not fail; it silently
///    writes a torn page (first half lands, second half corrupted) and
///    reports success. Detected later by the checksum on read.
///  - `short_reads`: a triggered *read* does not fail; it delivers a
///    short read (tail zeroed) and reports success. Detected by the
///    checksum.
///
/// Parseable from a spec string (the PBITREE_FAULT_SCHEDULE env var):
///   "seed=42,write_every=13,read_every=0,transient=2,
///    write_p=0.0,read_p=0.0,torn_writes=0,short_reads=0"
/// Unknown keys are an error; omitted keys keep their defaults. A
/// schedule with no trigger (all *_every == 0 and *_p == 0) injects
/// nothing.
struct FaultSchedule {
  uint64_t seed = 1;
  uint64_t read_every = 0;   // fault every Nth read attempt (0 = off)
  uint64_t write_every = 0;  // fault every Nth write attempt (0 = off)
  double read_p = 0.0;       // per-read fault probability
  double write_p = 0.0;      // per-write fault probability
  uint32_t transient = 0;    // consecutive failures per trigger; 0 = sticky
  bool torn_writes = false;
  bool short_reads = false;

  bool Enabled() const {
    return read_every != 0 || write_every != 0 || read_p > 0.0 || write_p > 0.0;
  }

  static StatusOr<FaultSchedule> Parse(const std::string& spec);

  /// Parses PBITREE_FAULT_SCHEDULE; nullopt when unset. A set-but-
  /// invalid spec aborts with a message naming the variable — a knob
  /// the user bothered to set must never be silently ignored.
  static std::optional<FaultSchedule> FromEnv();

  std::string ToString() const;
};

/// \brief Decorator injecting scheduled faults into another backend.
///
/// Deterministic: the fault sequence is a pure function of the schedule
/// and the order of operations (single-threaded runs reproduce
/// bit-for-bit; the per-kind op counters and RNG sit under a mutex so
/// concurrent use stays well-defined). The schedule can be re-armed at
/// runtime, letting tests build clean data first and inject faults only
/// during the measured run.
class FaultInjectingBackend : public IoBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<IoBackend> inner,
                        FaultSchedule schedule);

  const char* name() const override { return "fault"; }
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* in) override;
  Status Allocate(PageId id) override { return inner_->Allocate(id); }
  Status Free(PageId id) override { return inner_->Free(id); }
  Status Sync() override { return inner_->Sync(); }
  StatusOr<PageId> SizeInPages() override { return inner_->SizeInPages(); }

  /// Replaces the schedule and resets all fault state (op counters,
  /// pending failures, RNG reseeded from the new schedule).
  void Arm(const FaultSchedule& schedule);

  /// Stops injecting (equivalent to arming an empty schedule).
  void Disarm() { Arm(FaultSchedule{}); }

  /// Total faults injected since construction (survives re-arming).
  uint64_t faults_injected() const;

 private:
  /// Per-operation-kind trigger state.
  struct KindState {
    uint64_t ops = 0;                // attempts seen
    uint32_t pending_failures = 0;   // transient failures still owed
    bool sticky_failed = false;      // permanent fault latched
  };

  /// Returns true when this attempt must be faulted (mutex held).
  bool TriggerLocked(KindState* ks, uint64_t every, double p);

  std::unique_ptr<IoBackend> inner_;
  mutable std::mutex mu_;
  FaultSchedule schedule_;
  Random rng_;
  KindState reads_, writes_;
  uint64_t faults_injected_ = 0;
};

/// Factory keyed by backend kind, the `--backend=file|mem` surface of
/// pbitree_cli: "file" opens (or creates) a persistent database at
/// `path`; "mem" ignores `path` and builds a fresh volatile store.
StatusOr<std::unique_ptr<IoBackend>> MakeIoBackend(const std::string& kind,
                                                   const std::string& path);

}  // namespace pbitree

#endif  // PBITREE_STORAGE_IO_BACKEND_H_
