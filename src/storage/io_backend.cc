#include "storage/io_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "storage/factory.h"

namespace pbitree {

// ---------------------------------------------------------------------------
// Positional full-transfer loops

namespace io_internal {

Status ReadFullAt(const PReadFn& pread_fn, const char* what, char* buf,
                  size_t n, off_t off) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = pread_fn(buf + got, n - got, off + static_cast<off_t>(got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(what) + ": " + std::strerror(errno));
    }
    if (r == 0) {
      // True end of file: the store has never been extended this far.
      // Only here may the tail read as zeroes — a short read with more
      // bytes behind it must resume, not zero-fill.
      std::memset(buf + got, 0, n - got);
      return Status::OK();
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFullAt(const PWriteFn& pwrite_fn, const char* what,
                   const char* buf, size_t n, off_t off) {
  size_t put = 0;
  while (put < n) {
    ssize_t w = pwrite_fn(buf + put, n - put, off + static_cast<off_t>(put));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(what) + ": " + std::strerror(errno));
    }
    if (w == 0) {
      return Status::IOError(std::string(what) +
                             ": wrote 0 bytes (device full?)");
    }
    put += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace io_internal

// ---------------------------------------------------------------------------
// FileIoBackend

StatusOr<std::unique_ptr<IoBackend>> FileIoBackend::Open(
    const std::string& path, bool truncate, bool unlink_on_close) {
  // O_CLOEXEC: the daemon forks/execs helpers from connection-handling
  // code; a data-file fd leaking into a child would outlive our unlink
  // discipline and bypass the Sync barrier.
  int flags = O_RDWR | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  return std::unique_ptr<IoBackend>(
      new FileIoBackend(path, fd, unlink_on_close));
}

FileIoBackend::~FileIoBackend() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (!path_.empty() && unlink_on_close_) ::unlink(path_.c_str());
  }
}

Status FileIoBackend::ReadPage(PageId id, char* out) {
  // The loop distinguishes a short read with bytes still behind it
  // (resume — signal-interrupted or mid-extension transfers otherwise
  // return pages with silently zeroed tails) from a true EOF (the
  // never-written-page zero-fill contract).
  return io_internal::ReadFullAt(
      [this](char* buf, size_t n, off_t off) {
        return ::pread(fd_, buf, n, off);
      },
      "pread", out, kPageSize, static_cast<off_t>(id) * kPageSize);
}

Status FileIoBackend::WritePage(PageId id, const char* in) {
  return io_internal::WriteFullAt(
      [this](const char* buf, size_t n, off_t off) {
        return ::pwrite(fd_, buf, n, off);
      },
      "pwrite", in, kPageSize, static_cast<off_t>(id) * kPageSize);
}

Status FileIoBackend::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<PageId> FileIoBackend::SizeInPages() {
  // fstat, not lseek(SEEK_END): stat does not touch the (shared) file
  // offset, so concurrent SizeInPages calls cannot perturb each other
  // or any other fd user, and there is no read-modify race on seek.
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError(std::string("fstat: ") + std::strerror(errno));
  }
  return static_cast<PageId>((st.st_size + static_cast<off_t>(kPageSize) - 1) /
                             static_cast<off_t>(kPageSize));
}

// ---------------------------------------------------------------------------
// MemIoBackend

Status MemIoBackend::ReadPage(PageId id, char* out) {
  const size_t off = static_cast<size_t>(id) * kPageSize;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    if (mem_.size() >= off + kPageSize) {
      std::memcpy(out, mem_.data() + off, kPageSize);
      return Status::OK();
    }
  }
  // Page allocated but never written: the store has not grown to cover
  // it yet. Grow under the exclusive lock and serve zeroes.
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (mem_.size() < off + kPageSize) mem_.resize(off + kPageSize, 0);
  std::memcpy(out, mem_.data() + off, kPageSize);
  return Status::OK();
}

Status MemIoBackend::WritePage(PageId id, const char* in) {
  const size_t off = static_cast<size_t>(id) * kPageSize;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    if (mem_.size() >= off + kPageSize) {
      std::memcpy(mem_.data() + off, in, kPageSize);
      return Status::OK();
    }
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (mem_.size() < off + kPageSize) mem_.resize(off + kPageSize, 0);
  std::memcpy(mem_.data() + off, in, kPageSize);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FaultSchedule

StatusOr<FaultSchedule> FaultSchedule::Parse(const std::string& spec) {
  FaultSchedule s;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(",;", pos);
    if (end == std::string::npos) end = spec.size();
    std::string kv = spec.substr(pos, end - pos);
    pos = end + 1;
    if (kv.empty()) continue;
    size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault schedule: '" + kv +
                                     "' is not key=value");
    }
    std::string key = kv.substr(0, eq);
    std::string val = kv.substr(eq + 1);
    char* rest = nullptr;
    errno = 0;
    if (key == "read_p" || key == "write_p") {
      double d = std::strtod(val.c_str(), &rest);
      if (errno != 0 || rest == val.c_str() || *rest != '\0' || d < 0.0 ||
          d > 1.0) {
        return Status::InvalidArgument("fault schedule: bad probability '" +
                                       kv + "' (want 0..1)");
      }
      (key == "read_p" ? s.read_p : s.write_p) = d;
      continue;
    }
    unsigned long long u = std::strtoull(val.c_str(), &rest, 10);
    if (errno != 0 || rest == val.c_str() || *rest != '\0') {
      return Status::InvalidArgument("fault schedule: bad value '" + kv + "'");
    }
    if (key == "seed") {
      s.seed = u;
    } else if (key == "read_every") {
      s.read_every = u;
    } else if (key == "write_every") {
      s.write_every = u;
    } else if (key == "transient") {
      s.transient = static_cast<uint32_t>(u);
    } else if (key == "torn_writes") {
      s.torn_writes = u != 0;
    } else if (key == "short_reads") {
      s.short_reads = u != 0;
    } else {
      return Status::InvalidArgument("fault schedule: unknown key '" + key +
                                     "'");
    }
  }
  return s;
}

std::optional<FaultSchedule> FaultSchedule::FromEnv() {
  const char* spec = std::getenv("PBITREE_FAULT_SCHEDULE");
  if (spec == nullptr || spec[0] == '\0') return std::nullopt;
  auto parsed = Parse(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "PBITREE_FAULT_SCHEDULE=\"%s\": %s\n", spec,
                 parsed.status().ToString().c_str());
    std::abort();
  }
  return *parsed;
}

std::string FaultSchedule::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu,read_every=%llu,write_every=%llu,read_p=%g,"
                "write_p=%g,transient=%u,torn_writes=%d,short_reads=%d",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(read_every),
                static_cast<unsigned long long>(write_every), read_p, write_p,
                transient, torn_writes ? 1 : 0, short_reads ? 1 : 0);
  return buf;
}

// ---------------------------------------------------------------------------
// FaultInjectingBackend

FaultInjectingBackend::FaultInjectingBackend(std::unique_ptr<IoBackend> inner,
                                             FaultSchedule schedule)
    : inner_(std::move(inner)), schedule_(schedule), rng_(schedule.seed) {}

void FaultInjectingBackend::Arm(const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lk(mu_);
  schedule_ = schedule;
  rng_.Seed(schedule.seed);
  reads_ = KindState{};
  writes_ = KindState{};
}

uint64_t FaultInjectingBackend::faults_injected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return faults_injected_;
}

bool FaultInjectingBackend::TriggerLocked(KindState* ks, uint64_t every,
                                          double p) {
  ++ks->ops;
  if (ks->sticky_failed) return true;
  if (ks->pending_failures > 0) {
    --ks->pending_failures;
    return true;
  }
  bool trigger = (every != 0 && ks->ops % every == 0) ||
                 (p > 0.0 && rng_.Bernoulli(p));
  if (!trigger) return false;
  if (schedule_.transient > 0) {
    ks->pending_failures = schedule_.transient - 1;
  } else {
    ks->sticky_failed = true;
  }
  return true;
}

Status FaultInjectingBackend::ReadPage(PageId id, char* out) {
  bool fault, corrupt;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fault = schedule_.Enabled() &&
            TriggerLocked(&reads_, schedule_.read_every, schedule_.read_p);
    corrupt = fault && schedule_.short_reads;
    if (fault) ++faults_injected_;
  }
  if (fault) obs::Count(obs::Counter::kIoFaultsInjected);
  if (fault && !corrupt) {
    return Status::IOError("injected fault: read of page " +
                           std::to_string(id));
  }
  PBITREE_RETURN_IF_ERROR(inner_->ReadPage(id, out));
  if (corrupt) {
    // Short read: the tail of the page never arrived. The caller's
    // checksum — not this layer — must notice.
    std::memset(out + kPageSize / 2, 0, kPageSize / 2);
  }
  return Status::OK();
}

Status FaultInjectingBackend::WritePage(PageId id, const char* in) {
  bool fault, corrupt;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fault = schedule_.Enabled() &&
            TriggerLocked(&writes_, schedule_.write_every, schedule_.write_p);
    corrupt = fault && schedule_.torn_writes;
    if (fault) ++faults_injected_;
  }
  if (fault) obs::Count(obs::Counter::kIoFaultsInjected);
  if (fault && !corrupt) {
    return Status::IOError("injected fault: write of page " +
                           std::to_string(id));
  }
  if (corrupt) {
    // Torn write: the first half lands, the second half is garbage —
    // and the device reports success. XOR guarantees every torn byte
    // differs from the intended one, so the page checksum cannot
    // accidentally still match.
    char torn[kPageSize];
    std::memcpy(torn, in, kPageSize);
    for (size_t i = kPageSize / 2; i < kPageSize; ++i) {
      torn[i] = static_cast<char>(torn[i] ^ 0xFF);
    }
    return inner_->WritePage(id, torn);
  }
  return inner_->WritePage(id, in);
}

// ---------------------------------------------------------------------------
// Factory

StatusOr<std::unique_ptr<IoBackend>> MakeIoBackend(const std::string& kind,
                                                   const std::string& path) {
  PBITREE_RETURN_IF_ERROR(ValidateIoBackendKind(kind));
  if (kind == "mem") {
    return std::unique_ptr<IoBackend>(new MemIoBackend());
  }
  if (path.empty()) {
    return Status::InvalidArgument("file backend requires a path");
  }
  return FileIoBackend::Open(path, /*truncate=*/false,
                             /*unlink_on_close=*/false);
}

}  // namespace pbitree
