#include "serve/result_cache.h"

#include "common/env.h"
#include "obs/metrics.h"

namespace pbitree {
namespace serve {

ResultCacheConfig ResultCacheConfig::FromEnv() {
  ResultCacheConfig cfg;
  cfg.max_bytes = static_cast<size_t>(
      EnvInt64Checked("PBITREE_RESULT_CACHE_BYTES",
                      static_cast<int64_t>(cfg.max_bytes), 0,
                      int64_t{1} << 40));
  return cfg;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::Lookup(const Key& key) {
  if (cfg_.max_bytes == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    obs::Count(obs::Counter::kServeCacheMisses);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  obs::Count(obs::Counter::kServeCacheHits);
  return it->second.entry;
}

void ResultCache::Insert(const Key& key, std::shared_ptr<const Entry> entry) {
  if (entry == nullptr) return;
  const size_t entry_bytes = EntryBytes(entry->pairs.size());
  if (entry_bytes > cfg_.max_bytes) return;  // can never fit
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) Erase(it);
  while (bytes_ + entry_bytes > cfg_.max_bytes && !lru_.empty()) {
    obs::Count(obs::Counter::kServeCacheEvictions);
    Erase(map_.find(lru_.back()));
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), lru_.begin(), entry_bytes});
  bytes_ += entry_bytes;
  obs::GaugeMax(obs::Gauge::kServeCacheBytes, bytes_);
}

void ResultCache::EvictStaleEpochs(uint64_t live_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keys sort epoch-first, so the stale range is the map's prefix.
  auto it = map_.begin();
  while (it != map_.end() && it->first.epoch < live_epoch) {
    auto next = std::next(it);
    Erase(it);
    it = next;
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

void ResultCache::Erase(std::map<Key, Slot>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

}  // namespace serve
}  // namespace pbitree
