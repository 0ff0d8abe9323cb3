#ifndef PBITREE_SERVE_RESULT_CACHE_H_
#define PBITREE_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "join/result_sink.h"
#include "serve/protocol.h"

namespace pbitree {
namespace serve {

/// \brief Result-cache knob, read once at daemon start.
///
/// `PBITREE_RESULT_CACHE_BYTES` bounds the cache's resident bytes; 0
/// turns the cache off. It goes through the checked env reader: a
/// set-but-invalid value aborts instead of silently meaning something
/// else.
struct ResultCacheConfig {
  size_t max_bytes = size_t{64} << 20;  // 64 MiB

  static ResultCacheConfig FromEnv();
};

/// \brief Epoch-keyed query-result cache of the serving layer: a
/// byte-budgeted LRU from (ancestor tag, descendant tag, algorithm,
/// snapshot epoch) to the join's full result — every pair plus the
/// JoinSummary of the run that produced it.
///
/// The epoch is part of the key, so a committed mutation batch
/// invalidates every cached result *by construction*: post-commit
/// queries pin the new epoch and simply never hit the old entries.
/// EvictStaleEpochs() reclaims their bytes eagerly after a bump (they
/// could otherwise linger until LRU pressure pushes them out).
///
/// Entries are immutable and handed out as shared_ptr, so a hit replays
/// its pairs outside the cache lock while concurrent inserts or
/// evictions proceed. Replay through the normal SocketSink re-chunks
/// the stored pairs into kPairsPerFrame frames deterministically, which
/// makes a cache-hit response byte-identical to the uncached response
/// at the same epoch — the property the serve tests pin.
///
/// The byte budget counts pair payload plus a fixed per-entry overhead;
/// a result too large to ever fit is not cached at all (see
/// CachingSink). Hits, misses and budget evictions count into the obs
/// registry (serve_cache_hits/misses/evictions); resident bytes feed
/// the serve_cache_bytes_max gauge.
class ResultCache {
 public:
  struct Key {
    std::string a;         // ancestor-set tag
    std::string d;         // descendant-set tag
    std::string algorithm; // requested algorithm name, "auto" included
    uint64_t epoch = 0;    // snapshot epoch the result belongs to

    bool operator<(const Key& o) const {
      if (epoch != o.epoch) return epoch < o.epoch;
      if (a != o.a) return a < o.a;
      if (d != o.d) return d < o.d;
      return algorithm < o.algorithm;
    }
  };

  struct Entry {
    std::vector<ResultPair> pairs;
    JoinSummary summary;
  };

  /// Bytes an entry with `num_pairs` pairs charges against the budget
  /// (pair payload + bookkeeping overhead; key strings are small and
  /// folded into the constant).
  static size_t EntryBytes(size_t num_pairs) {
    return num_pairs * sizeof(ResultPair) + kEntryOverheadBytes;
  }

  explicit ResultCache(ResultCacheConfig cfg) : cfg_(cfg) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  size_t max_bytes() const { return cfg_.max_bytes; }

  /// The cached result for `key`, or null. Counts a hit or a miss and
  /// refreshes the entry's LRU position. Always a miss (uncounted) at
  /// a zero byte budget, where the cache is off.
  std::shared_ptr<const Entry> Lookup(const Key& key);

  /// Caches `entry` under `key`, evicting least-recently-used entries
  /// until the budget holds. An entry over the whole budget is dropped
  /// (never cached), as is every entry at a zero budget; a duplicate
  /// key is replaced.
  void Insert(const Key& key, std::shared_ptr<const Entry> entry);

  /// Drops every entry whose epoch is older than `live_epoch` — the
  /// eager reclaim after a commit bumps the store epoch. These are
  /// invalidations, not budget evictions, so they do not count into
  /// serve_cache_evictions.
  void EvictStaleEpochs(uint64_t live_epoch);

  /// Drops everything (tests).
  void Clear();

  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  static constexpr size_t kEntryOverheadBytes = 160;

  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<Key>::iterator lru_it;
    size_t bytes = 0;
  };

  /// Unlinks `it` from both structures. Caller holds mu_.
  void Erase(std::map<Key, Slot>::iterator it);

  const ResultCacheConfig cfg_;
  mutable std::mutex mu_;
  std::list<Key> lru_;  // front = most recently used
  std::map<Key, Slot> map_;
  size_t bytes_ = 0;
};

/// \brief Tee sink: forwards every pair to the client-facing sink
/// unchanged while accumulating a copy for cache insertion. If the
/// result would grow past the cache's whole budget the copy is
/// abandoned (freed immediately, forwarding continues) — the query
/// still streams, it just is not cacheable. At a zero budget no pair is
/// ever copied.
class CachingSink : public ResultSink {
 public:
  CachingSink(ResultSink* inner, size_t budget_bytes)
      : inner_(inner), budget_bytes_(budget_bytes) {}

  Status OnPair(Code a, Code d) override {
    const ResultPair pair{a, d};
    Keep(std::span<const ResultPair>(&pair, 1));
    return inner_->OnPair(a, d);
  }

  Status OnBatch(std::span<const ResultPair> pairs) override {
    Keep(pairs);
    return inner_->OnBatch(pairs);
  }

  /// True when the copy survived (result fits the cache budget). A
  /// sink that saw no pair is cacheable; ResultCache::Insert still
  /// drops the entry at a zero budget.
  bool cacheable() const { return !abandoned_; }

  /// Pairs forwarded so far (kept even after the copy is abandoned).
  uint64_t count() const { return count_; }

  /// Moves the accumulated pairs out (valid once, after the join).
  std::vector<ResultPair> TakePairs() { return std::move(pairs_); }

 private:
  void Keep(std::span<const ResultPair> pairs) {
    count_ += pairs.size();
    if (abandoned_) return;
    if (ResultCache::EntryBytes(pairs_.size() + pairs.size()) >
        budget_bytes_) {
      abandoned_ = true;
      pairs_.clear();
      pairs_.shrink_to_fit();
      return;
    }
    pairs_.insert(pairs_.end(), pairs.begin(), pairs.end());
  }

  ResultSink* inner_;
  size_t budget_bytes_;
  bool abandoned_ = false;
  uint64_t count_ = 0;
  std::vector<ResultPair> pairs_;
};

}  // namespace serve
}  // namespace pbitree

#endif  // PBITREE_SERVE_RESULT_CACHE_H_
