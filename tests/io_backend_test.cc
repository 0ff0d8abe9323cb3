// Synchronous I/O backend tests: the injectable ReadFullAt/WriteFullAt
// transfer loops (EINTR retry, short-transfer resumption, EOF
// zero-fill), the FileIoBackend fixes they back (O_CLOEXEC, fstat-based
// sizing), and the backend-kind vocabulary shared by the factory and
// the tools.

#include "storage/io_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/factory.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

// ---------------------------------------------------------------------
// io_internal::ReadFullAt — the pread resumption loop, driven by
// scripted primitives so every branch is reachable without a device
// that actually delivers short reads.

TEST(ReadFullAtTest, RetriesEintr) {
  char buf[64] = {};
  int calls = 0;
  auto pread_fn = [&](char* out, size_t n, off_t) -> ssize_t {
    ++calls;
    if (calls <= 2) {
      errno = EINTR;
      return -1;
    }
    std::memset(out, 'x', n);
    return static_cast<ssize_t>(n);
  };
  Status st = io_internal::ReadFullAt(pread_fn, "read", buf, sizeof(buf), 0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(buf[0], 'x');
  EXPECT_EQ(buf[63], 'x');
}

TEST(ReadFullAtTest, ResumesShortReads) {
  // Deliver the 64 bytes in dribbles of at most 7, each at the right
  // offset; the loop must stitch them together without gaps.
  char buf[64] = {};
  off_t expect_off = 100;
  auto pread_fn = [&](char* out, size_t n, off_t off) -> ssize_t {
    EXPECT_EQ(off, expect_off);
    size_t give = n < 7 ? n : 7;
    for (size_t i = 0; i < give; ++i) {
      out[i] = static_cast<char>((off - 100) + i);
    }
    expect_off += static_cast<off_t>(give);
    return static_cast<ssize_t>(give);
  };
  Status st = io_internal::ReadFullAt(pread_fn, "read", buf, sizeof(buf), 100);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(buf[i], static_cast<char>(i)) << "at byte " << i;
  }
}

TEST(ReadFullAtTest, EofZeroFillsTail) {
  // 10 bytes exist, then end of file: the remaining 54 must come back
  // zeroed (the "allocated but never written" page contract), not as
  // whatever was in the caller's buffer.
  char buf[64];
  std::memset(buf, 0x5a, sizeof(buf));
  bool gave = false;
  auto pread_fn = [&](char* out, size_t n, off_t) -> ssize_t {
    if (gave) return 0;  // EOF
    gave = true;
    size_t give = n < 10 ? n : 10;
    std::memset(out, 'd', give);
    return static_cast<ssize_t>(give);
  };
  Status st = io_internal::ReadFullAt(pread_fn, "read", buf, sizeof(buf), 0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(buf[i], 'd');
  for (int i = 10; i < 64; ++i) EXPECT_EQ(buf[i], 0) << "at byte " << i;
}

TEST(ReadFullAtTest, HardErrorSurfaces) {
  char buf[16];
  auto pread_fn = [](char*, size_t, off_t) -> ssize_t {
    errno = EIO;
    return -1;
  };
  Status st = io_internal::ReadFullAt(pread_fn, "read", buf, sizeof(buf), 0);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// io_internal::WriteFullAt.

TEST(WriteFullAtTest, RetriesEintrAndResumesShortWrites) {
  char src[64];
  for (int i = 0; i < 64; ++i) src[i] = static_cast<char>(i);
  char dst[64] = {};
  int calls = 0;
  auto pwrite_fn = [&](const char* in, size_t n, off_t off) -> ssize_t {
    ++calls;
    if (calls == 1 || calls == 4) {
      errno = EINTR;
      return -1;
    }
    size_t take = n < 9 ? n : 9;
    std::memcpy(dst + off, in, take);
    return static_cast<ssize_t>(take);
  };
  Status st =
      io_internal::WriteFullAt(pwrite_fn, "write", src, sizeof(src), 0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(WriteFullAtTest, ZeroProgressIsAnError) {
  // A primitive that reports 0 bytes written on a nonzero request would
  // make the resumption loop spin forever; it must fail instead.
  char src[16] = {};
  auto pwrite_fn = [](const char*, size_t, off_t) -> ssize_t { return 0; };
  Status st =
      io_internal::WriteFullAt(pwrite_fn, "write", src, sizeof(src), 0);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// FileIoBackend: the fd behaviours the transfer loops feed.

std::string TempDbPath(const char* stem) {
  return testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".db";
}

TEST(FileIoBackendTest, RoundTripAndFstatSizing) {
  const std::string path = TempDbPath("fio_roundtrip");
  auto backend = FileIoBackend::Open(path, /*truncate=*/true,
                                     /*unlink_on_close=*/true);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  IoBackend* io = backend->get();

  auto size0 = io->SizeInPages();
  ASSERT_TRUE(size0.ok());
  EXPECT_EQ(*size0, 0u);

  std::vector<char> page(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) page[i] = static_cast<char>(i * 7);
  ASSERT_TRUE(io->WritePage(5, page.data()).ok());

  // Writing page 5 extends the file through it: 6 pages.
  auto size1 = io->SizeInPages();
  ASSERT_TRUE(size1.ok());
  EXPECT_EQ(*size1, 6u);

  std::vector<char> got(kPageSize);
  ASSERT_TRUE(io->ReadPage(5, got.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), got.data(), kPageSize), 0);

  // The never-written page 3 inside the extent reads as zeroes (sparse
  // hole), and so does page 9 beyond the end (EOF zero-fill).
  std::memset(got.data(), 0x77, kPageSize);
  ASSERT_TRUE(io->ReadPage(3, got.data()).ok());
  EXPECT_EQ(std::count(got.begin(), got.end(), '\0'),
            static_cast<long>(kPageSize));
  std::memset(got.data(), 0x77, kPageSize);
  ASSERT_TRUE(io->ReadPage(9, got.data()).ok());
  EXPECT_EQ(std::count(got.begin(), got.end(), '\0'),
            static_cast<long>(kPageSize));
}

TEST(FileIoBackendTest, OpensWithCloexec) {
  const std::string path = TempDbPath("fio_cloexec");
  auto backend = FileIoBackend::Open(path, /*truncate=*/true,
                                     /*unlink_on_close=*/true);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  // The backend does not expose its fd; find it by resolving every open
  // descriptor and checking the one that points at our file. Compare
  // canonical paths (TempDir may carry a trailing slash or symlink).
  char want[4096];
  ASSERT_NE(::realpath(path.c_str(), want), nullptr);
  char self[64];
  bool found = false;
  for (int fd = 3; fd < 1024; ++fd) {
    std::snprintf(self, sizeof(self), "/proc/self/fd/%d", fd);
    char target[4096];
    ssize_t n = ::readlink(self, target, sizeof(target) - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::strcmp(want, target) != 0) continue;
    found = true;
    int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_TRUE(flags & FD_CLOEXEC)
        << "backend fd " << fd << " leaks across exec";
  }
  EXPECT_TRUE(found) << "could not locate the backend's fd";
}

// ---------------------------------------------------------------------
// Backend kinds: one vocabulary, one error text.

TEST(IoBackendKindTest, AsyncKindsGetTheSingleUnknownBackendError) {
  // The tools validate up front (ValidateIoBackendKind); the daemon
  // reaches MakeIoBackend through SegmentStore::Open. Both must reject
  // the retired "async-" decorator kinds with the same message.
  const std::string path = TempDbPath("kind_async");
  for (const char* base : {"file", "mem"}) {
    const std::string kind = std::string("async-") + base;
    Status validated = ValidateIoBackendKind(kind);
    EXPECT_EQ(validated.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(validated.message(),
              "unknown backend '" + kind + "' (want file|mem)");

    auto made = MakeIoBackend(kind, path);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().ToString(), validated.ToString());

    SegmentStore::Options opts;
    opts.backend = kind;
    opts.path = path;
    auto opened = SegmentStore::Open(opts);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().ToString(), validated.ToString());
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "rejected kind created a file";
}

TEST(IoBackendKindTest, OnlyTheFileKindIsFileBacked) {
  EXPECT_TRUE(IsFileBackend("file"));
  EXPECT_FALSE(IsFileBackend("mem"));
  EXPECT_FALSE(IsFileBackend("tape"));
}

}  // namespace
}  // namespace pbitree
