// Tests for the execution subsystem: ThreadPool semantics (exception
// propagation, help-on-wait nesting), ExecContext, the
// ParallelPartitions fan-out/fan-in driver, and a multi-threaded stress
// test of the latched BufferManager.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec_context.h"
#include "exec/partition_exec.h"
#include "exec/thread_pool.h"
#include "join/join_context.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace pbitree {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         ran.fetch_add(1);
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The batch still runs to completion; only the error is rethrown.
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every worker blocks inside an outer ParallelFor iteration that
  // itself calls ParallelFor on the same pool. Help-on-wait means the
  // blocked iterations execute the inner tasks themselves.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 64);
}

TEST(ExecContextTest, SerialContextOwnsNoPool) {
  ExecContext serial(1);
  EXPECT_EQ(serial.threads(), 1u);
  EXPECT_EQ(serial.pool(), nullptr);

  ExecContext parallel(4);
  EXPECT_EQ(parallel.threads(), 4u);
  ASSERT_NE(parallel.pool(), nullptr);
  // threads - 1 pool workers: the help-on-wait caller is the fourth
  // executor, so at most threads() tasks ever run concurrently.
  EXPECT_EQ(parallel.pool()->num_threads(), 3u);
}

class PartitionExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(PartitionExecTest, ShouldParallelizeRequiresPoolAndWork) {
  EXPECT_FALSE(ShouldParallelize(nullptr, 8));  // no exec attached

  ExecContext one(1);
  EXPECT_FALSE(ShouldParallelize(&one, 8));  // threads == 1

  ExecContext four(4);
  EXPECT_TRUE(ShouldParallelize(&four, 8));
  EXPECT_FALSE(ShouldParallelize(&four, 1));  // single task
}

TEST_F(PartitionExecTest, ReplaysPairsInPartitionOrderAndMergesStats) {
  ExecContext exec(4);
  JoinContext ctx(bm_.get(), 32);
  constexpr size_t kParts = 16;

  VectorSink sink;
  Status st = ParallelPartitions(
      &exec, &ctx, &sink, kParts,
      [&](size_t i, JoinContext* worker, ResultSink* local_sink) {
        // Every worker gets the parent's pool and its full budget: a
        // task's budget does not depend on how many run at once.
        EXPECT_EQ(worker->work_pages, 32u);
        EXPECT_EQ(worker->bm, bm_.get());
        worker->stats.partitions += 1;
        worker->stats.false_hits += i;
        // Two pairs per partition, tagged with the partition index.
        PBITREE_RETURN_IF_ERROR(local_sink->OnPair(i + 1, 2 * i + 1));
        PBITREE_RETURN_IF_ERROR(local_sink->OnPair(i + 1, 2 * i + 2));
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Emission order is the serial loop's order regardless of which
  // worker finished first.
  ASSERT_EQ(sink.pairs().size(), 2 * kParts);
  for (size_t i = 0; i < kParts; ++i) {
    EXPECT_EQ(sink.pairs()[2 * i].ancestor_code, i + 1);
    EXPECT_EQ(sink.pairs()[2 * i].descendant_code, 2 * i + 1);
    EXPECT_EQ(sink.pairs()[2 * i + 1].descendant_code, 2 * i + 2);
  }
  EXPECT_EQ(ctx.stats.partitions, kParts);
  EXPECT_EQ(ctx.stats.false_hits, kParts * (kParts - 1) / 2);
}

TEST_F(PartitionExecTest, BufferingSinkSpillsAndReplaysInOrder) {
  const uint64_t live_before = disk_->num_live_pages();
  {
    BufferingSink sink(bm_.get(), /*max_buffered=*/8);  // force spills
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(sink.OnPair(i, i + 1).ok());
    }
    EXPECT_TRUE(sink.spilled());
    EXPECT_EQ(sink.count(), 100u);

    VectorSink out;
    ASSERT_TRUE(sink.ReplayInto(&out).ok());
    ASSERT_EQ(out.pairs().size(), 100u);
    // Emission order survives the round-trip through disk.
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(out.pairs()[i].ancestor_code, i);
      EXPECT_EQ(out.pairs()[i].descendant_code, i + 1);
    }
  }
  // Replay dropped the spill file: no pins, no leaked pages.
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

TEST_F(PartitionExecTest, BufferingSinkDropsAbandonedSpill) {
  const uint64_t live_before = disk_->num_live_pages();
  {
    BufferingSink sink(bm_.get(), /*max_buffered=*/4);
    for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(sink.OnPair(i, i).ok());
    EXPECT_TRUE(sink.spilled());
  }  // destroyed without replay — the failed-partition path
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

TEST_F(PartitionExecTest, BufferingSinkSpillsAreCountedInMetrics) {
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  BufferingSink sink(bm_.get(), /*max_buffered=*/8);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(sink.OnPair(i, i + 1).ok());
  }
  ASSERT_TRUE(sink.spilled());
  VectorSink out;
  ASSERT_TRUE(sink.ReplayInto(&out).ok());

  // 100 pairs with an 8-pair buffer: 12 spills of 8 pairs each hit
  // disk, the 4-pair tail replays from memory.
  auto snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kSinkSpills), 12u);
  EXPECT_EQ(snap.counter(obs::Counter::kSinkSpilledPairs), 96u);
}

TEST_F(PartitionExecTest, FailingPartitionWithSpillsLeaksNoTempPages) {
  // The error path abandons every worker's BufferingSink after some of
  // them spilled to disk; their temp files must be dropped, not leaked.
  ExecContext exec(4);
  // 8 pages: each local sink buffers 8 * kRecordsPerPage pairs, then
  // spills.
  JoinContext ctx(bm_.get(), 8);
  const uint64_t live_before = disk_->num_live_pages();

  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  VectorSink sink;
  Status st = ParallelPartitions(
      &exec, &ctx, &sink, 8,
      [&](size_t i, JoinContext*, ResultSink* local_sink) {
        for (uint64_t k = 0; k < 5000; ++k) {  // enough pairs to spill
          PBITREE_RETURN_IF_ERROR(local_sink->OnPair(k + 1, k + 2));
        }
        if (i == 5) return Status::Internal("boom");
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(sink.pairs().empty());
  EXPECT_GT(reg.Snapshot().counter(obs::Counter::kSinkSpills), 0u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

TEST_F(PartitionExecTest, FirstFailingPartitionWinsAndNothingIsEmitted) {
  ExecContext exec(4);
  JoinContext ctx(bm_.get(), 32);

  // Tasks 4..7 fail only after task 3 has: a task not yet started when
  // a sibling fails is cancelled, so an earlier failure of task 4 could
  // cancel task 3 and legitimately win. Tasks are dequeued in index
  // order, so task 3 is already running whenever a later task waits.
  std::atomic<bool> third_done{false};
  VectorSink sink;
  Status st = ParallelPartitions(
      &exec, &ctx, &sink, 8,
      [&](size_t i, JoinContext*, ResultSink* local_sink) {
        if (i == 3) {
          third_done.store(true);
          return Status::Internal("partition 3");
        }
        if (i > 3) {
          while (!third_done.load()) std::this_thread::yield();
          return Status::Internal("partition " + std::to_string(i));
        }
        return local_sink->OnPair(i, i);
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.ToString(), Status::Internal("partition 3").ToString());
  EXPECT_TRUE(sink.pairs().empty());
}

// Concurrent FetchPage/NewPage/UnpinPage/DeletePage traffic from many
// threads against a pool much smaller than the working set. Verifies
// page contents survive eviction races, every pin is released, and the
// disk's live-page accounting balances.
TEST(BufferManagerStressTest, ConcurrentFetchNewUnpinDelete) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 16);  // small pool: constant eviction

  constexpr int kThreads = 8;
  constexpr int kPagesPerThread = 40;
  constexpr int kRounds = 6;
  const uint64_t live_before = disk->num_live_pages();
  std::atomic<bool> failed{false};

  auto worker = [&](int t) {
    std::vector<PageId> mine;
    for (int p = 0; p < kPagesPerThread; ++p) {
      auto page = bm.NewPage();
      if (!page.ok()) {
        failed = true;
        return;
      }
      PageId id = (*page)->page_id();
      // Tag every byte with a thread/page-specific pattern.
      std::memset((*page)->data(), (t * 31 + p) % 251, kPageSize);
      if (!bm.UnpinPage(id, /*dirty=*/true).ok()) {
        failed = true;
        return;
      }
      mine.push_back(id);
    }
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kPagesPerThread; ++p) {
        auto page = bm.FetchPage(mine[p]);
        if (!page.ok()) {
          failed = true;
          return;
        }
        const char expect = (t * 31 + p) % 251;
        const char* data = (*page)->data();
        for (size_t b = 0; b < kPageSize; b += 509) {
          if (data[b] != expect) {
            failed = true;
            break;
          }
        }
        if (!bm.UnpinPage(mine[p], /*dirty=*/false).ok()) failed = true;
        if (failed) return;
      }
    }
    for (PageId id : mine) {
      if (!bm.DeletePage(id).ok()) {
        failed = true;
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(bm.PinnedFrames(), 0u);
  EXPECT_EQ(disk->num_live_pages(), live_before);
}

}  // namespace
}  // namespace pbitree
