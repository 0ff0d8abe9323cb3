#include "storage/catalog.h"

#include <cstring>

#include "common/crc32c.h"
#include "obs/metrics.h"

namespace pbitree {

namespace {

// Where the entry array starts: byte 24 in version-1 files, byte 48
// (after epoch/log/CRC) in version-2 files. 48 + 42*96 = 4080 <= 4096.
constexpr size_t kHeaderBytesV1 = 24;
constexpr size_t kHeaderBytesV2 = 48;
constexpr size_t kEntryBytes = 96;

template <typename T>
void PutAt(char* base, size_t off, T v) {
  std::memcpy(base + off, &v, sizeof(T));
}
template <typename T>
T GetAt(const char* base, size_t off) {
  T v;
  std::memcpy(&v, base + off, sizeof(T));
  return v;
}

}  // namespace

bool Catalog::HeaderCrcValid(const char* page) {
  if (GetAt<uint64_t>(page, 0) != kMagic) return false;
  if (GetAt<uint32_t>(page, kVersionOffset) < 2) return false;
  return Crc32cZeroedField(page, kPageSize, kCrcOffset) ==
         GetAt<uint32_t>(page, kCrcOffset);
}

StatusOr<Catalog> Catalog::Load(BufferManager* bm) {
  // Counted so a serving process can prove it loads the catalog once
  // and answers every query from the warm copy (see serve/server.h).
  obs::Count(obs::Counter::kCatalogLoads);
  Catalog cat;
  if (bm->disk()->frontier() == 0) return cat;  // nothing on disk yet
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(0));
  const char* data = p->data();
  if (GetAt<uint64_t>(data, 0) != kMagic) {
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(0, false));
    return cat;  // fresh or foreign database: empty catalog
  }
  uint32_t version = GetAt<uint32_t>(data, kVersionOffset);
  uint32_t count = GetAt<uint32_t>(data, 12);
  uint32_t frontier = GetAt<uint32_t>(data, 16);
  // Offset 20 was zero padding before code-space sharding, so every
  // pre-sharding database reads back as segment level 0 (unsegmented).
  cat.segment_level_ = GetAt<uint32_t>(data, 20);
  size_t header_bytes = kHeaderBytesV1;
  if (version >= 2) {
    header_bytes = kHeaderBytesV2;
    // A mutable database recovers torn header writes from its commit
    // log before Load runs (ElementSetStore::Recover); a CRC mismatch
    // here means there was no log to replay — refuse to guess.
    if (!HeaderCrcValid(data)) {
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(0, false));
      return Status::Corruption("catalog header checksum mismatch");
    }
    cat.epoch_ = GetAt<uint64_t>(data, kEpochOffset);
    cat.log_first_page_ = GetAt<PageId>(data, kLogFirstOffset);
    cat.log_page_count_ = GetAt<uint32_t>(data, kLogCountOffset);
  }
  bm->disk()->SetFrontier(frontier);
  if (count > kMaxEntries) {
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(0, false));
    return Status::Corruption("catalog entry count out of range");
  }
  for (uint32_t i = 0; i < count; ++i) {
    const char* at = data + header_bytes + i * kEntryBytes;
    char name_buf[kMaxNameLen + 1];
    std::memcpy(name_buf, at, kMaxNameLen + 1);
    name_buf[kMaxNameLen] = '\0';
    Entry e;
    e.first_page = GetAt<PageId>(at, 32);
    e.num_records = GetAt<uint64_t>(at, 40);
    e.num_pages = GetAt<uint64_t>(at, 48);
    e.tree_height = GetAt<int32_t>(at, 56);
    e.flags = GetAt<uint32_t>(at, 60);
    e.height_mask = GetAt<uint64_t>(at, 64);
    e.min_start = GetAt<uint64_t>(at, 72);
    e.max_end = GetAt<uint64_t>(at, 80);
    cat.entries_.emplace(name_buf, e);
  }
  PBITREE_RETURN_IF_ERROR(bm->UnpinPage(0, false));
  return cat;
}

void Catalog::RenderHeader(char* page, PageId frontier) const {
  std::memset(page, 0, kPageSize);
  PutAt<uint64_t>(page, 0, kMagic);
  PutAt<uint32_t>(page, kVersionOffset, 2);
  PutAt<uint32_t>(page, 12, static_cast<uint32_t>(entries_.size()));
  PutAt<uint32_t>(page, 16, frontier);
  PutAt<uint32_t>(page, 20, segment_level_);
  PutAt<uint64_t>(page, kEpochOffset, epoch_);
  PutAt<PageId>(page, kLogFirstOffset, log_first_page_);
  PutAt<uint32_t>(page, kLogCountOffset, log_page_count_);
  size_t i = 0;
  for (const auto& [name, e] : entries_) {
    char* at = page + kHeaderBytesV2 + i * kEntryBytes;
    std::memcpy(at, name.c_str(), name.size());
    PutAt<PageId>(at, 32, e.first_page);
    PutAt<uint64_t>(at, 40, e.num_records);
    PutAt<uint64_t>(at, 48, e.num_pages);
    PutAt<int32_t>(at, 56, e.tree_height);
    PutAt<uint32_t>(at, 60, e.flags);
    PutAt<uint64_t>(at, 64, e.height_mask);
    PutAt<uint64_t>(at, 72, e.min_start);
    PutAt<uint64_t>(at, 80, e.max_end);
    ++i;
  }
  // CRC last, over the page with the CRC field itself zeroed.
  PutAt<uint32_t>(page, kCrcOffset, Crc32c(page, kPageSize));
}

Status Catalog::Save(BufferManager* bm) {
  // Flush data pages first so the catalog never points at unwritten
  // pages; the header goes through the pool so later Loads in the same
  // process see it.
  PBITREE_RETURN_IF_ERROR(bm->FlushAll());
  char data[kPageSize];
  RenderHeader(data, bm->disk()->frontier());
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(0));
  std::memcpy(p->data(), data, kPageSize);
  PBITREE_RETURN_IF_ERROR(bm->UnpinPage(0, /*dirty=*/true));
  PBITREE_RETURN_IF_ERROR(bm->FlushPage(0));
  // Durability barrier: data pages and the header that points at them
  // must both survive a crash from here on.
  return bm->disk()->Sync();
}

Status Catalog::Put(const std::string& name, const ElementSet& set,
                    uint32_t extra_flags) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return Status::InvalidArgument("catalog name must be 1..31 bytes");
  }
  if (!set.file.valid()) {
    return Status::InvalidArgument("cannot catalog an invalid element set");
  }
  if (entries_.count(name) == 0 && entries_.size() >= kMaxEntries) {
    return Status::ResourceExhausted("catalog full (42 entries)");
  }
  Entry e;
  e.first_page = set.file.first_page();
  e.num_records = set.num_records();
  e.num_pages = set.num_pages();
  e.tree_height = set.spec.height;
  // Sortedness and codec are derived from the set itself — extra_flags
  // cannot override them (or mark the entry segmented; PutMaster does).
  e.flags =
      (set.sorted_by_start ? kFlagSorted : 0u) |
      (set.file.codec() == PageCodecKind::kFoRDelta ? kFlagCodecFoRDelta
                                                    : 0u) |
      (extra_flags & ~kFlagSorted & ~kFlagSegmented & ~kFlagCodecFoRDelta);
  e.height_mask = set.height_mask;
  e.min_start = set.min_start;
  e.max_end = set.max_end;
  entries_[name] = e;
  return Status::OK();
}

StatusOr<ElementSet> Catalog::Get(BufferManager* bm,
                                const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no element set named '" + name + "'");
  }
  const Entry& e = it->second;
  if ((e.flags & kFlagSegmented) != 0) {
    return Status::InvalidArgument(
        "element set '" + name +
        "' is segmented; open it through a SegmentStore");
  }
  const PageCodecKind codec = (e.flags & kFlagCodecFoRDelta) != 0
                                  ? PageCodecKind::kFoRDelta
                                  : PageCodecKind::kRaw;
  PBITREE_ASSIGN_OR_RETURN(HeapFile file,
                           HeapFile::Attach(bm, e.first_page, codec));
  if (file.num_records() != e.num_records) {
    return Status::Corruption("catalog entry '" + name +
                              "' does not match the on-disk file");
  }
  ElementSet set;
  set.file = file;
  set.spec = PBiTreeSpec{e.tree_height};
  set.sorted_by_start = (e.flags & 1u) != 0;
  set.height_mask = e.height_mask;
  set.min_start = e.min_start;
  set.max_end = e.max_end;
  return set;
}

StatusOr<uint32_t> Catalog::EntryFlags(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no element set named '" + name + "'");
  }
  return it->second.flags;
}

Status Catalog::PutMaster(const std::string& name,
                          const SegmentedSetInfo& info) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return Status::InvalidArgument("catalog name must be 1..31 bytes");
  }
  if (entries_.count(name) == 0 && entries_.size() >= kMaxEntries) {
    return Status::ResourceExhausted("catalog full (42 entries)");
  }
  Entry e;
  e.first_page = kInvalidPageId;  // segment files own the pages
  e.num_records = info.num_records;
  e.num_pages = info.num_pages;
  e.tree_height = info.tree_height;
  e.flags = kFlagSegmented | (info.sorted_by_start ? kFlagSorted : 0u);
  e.height_mask = info.height_mask;
  e.min_start = info.min_start;
  e.max_end = info.max_end;
  entries_[name] = e;
  return Status::OK();
}

StatusOr<Catalog::SegmentedSetInfo> Catalog::GetMaster(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no element set named '" + name + "'");
  }
  const Entry& e = it->second;
  if ((e.flags & kFlagSegmented) == 0) {
    return Status::InvalidArgument("element set '" + name +
                                   "' is not segmented");
  }
  SegmentedSetInfo info;
  info.num_records = e.num_records;
  info.num_pages = e.num_pages;
  info.tree_height = e.tree_height;
  info.sorted_by_start = (e.flags & kFlagSorted) != 0;
  info.height_mask = e.height_mask;
  info.min_start = e.min_start;
  info.max_end = e.max_end;
  return info;
}

bool Catalog::IsSegmented(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() &&
         (it->second.flags & kFlagSegmented) != 0;
}

Status Catalog::Remove(const std::string& name) {
  if (entries_.erase(name) == 0) {
    return Status::NotFound("no element set named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  return out;
}

}  // namespace pbitree
