#include "storage/element_store.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "common/crc32c.h"
#include "pbitree/update.h"

namespace pbitree {

namespace {

// Commit-log stream layout (chunked over a chain of log pages, each
// page: u32 next, u32 chunk_len, payload):
//   0  u64 magic "PBITRLOG"     8  u64 epoch of the commit
//   16 u32 image count          20 u32 CRC32C (field zeroed to compute)
//   24 images: (u32 page id + kPageSize after-image) each.
// The first image is always the new catalog header (page 0).
constexpr uint64_t kLogMagic = 0x474F4C5254494250ULL;  // "PBITRLOG"
constexpr size_t kLogHeaderBytes = 24;
constexpr size_t kLogImageBytes = 4 + kPageSize;
constexpr size_t kLogPagePayload = kPageSize - 8;

template <typename T>
void AppendPod(std::vector<char>* v, T x) {
  const char* p = reinterpret_cast<const char*>(&x);
  v->insert(v->end(), p, p + sizeof(T));
}

template <typename T>
T ReadPod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

Status ElementSetStore::Recover(DiskManager* disk) {
  PBITREE_ASSIGN_OR_RETURN(PageId size, disk->backend()->SizeInPages());
  if (size == 0) return Status::OK();  // brand-new database
  // ReadPage range-checks against the frontier; the backend's size is a
  // safe (only-grows) bound until Catalog::Load restores the real one.
  disk->SetFrontier(size);
  std::vector<char> header(kPageSize);
  PBITREE_RETURN_IF_ERROR(disk->ReadPage(0, header.data()));
  if (ReadPod<uint64_t>(header.data()) != Catalog::kMagic) return Status::OK();
  if (ReadPod<uint32_t>(header.data() + Catalog::kVersionOffset) < 2) {
    return Status::OK();  // build-once v1 database: nothing to repair
  }
  const bool header_ok = Catalog::HeaderCrcValid(header.data());
  // The recovery-critical scalars live in the first half of the page,
  // which even a torn header write leaves intact; bogus values in a
  // fully garbled header just make the log parse below fail closed.
  const uint64_t header_epoch =
      ReadPod<uint64_t>(header.data() + Catalog::kEpochOffset);
  const PageId log_first =
      ReadPod<PageId>(header.data() + Catalog::kLogFirstOffset);
  const uint32_t log_count =
      ReadPod<uint32_t>(header.data() + Catalog::kLogCountOffset);

  // Reassemble and validate the commit-log stream. Any defect — bad
  // chain, short stream, wrong magic or checksum — means the last
  // commit never became durable; the log is then simply ignored.
  bool log_ok = false;
  uint64_t log_epoch = 0;
  uint32_t n_images = 0;
  std::vector<char> stream;
  do {
    if (log_first == kInvalidPageId || log_count == 0 || log_count > size) {
      break;
    }
    PageId pid = log_first;
    bool bad = false;
    for (uint32_t i = 0; i < log_count; ++i) {
      if (pid == 0 || pid == kInvalidPageId || pid >= size) {
        bad = true;
        break;
      }
      char page[kPageSize];
      if (!disk->ReadPage(pid, page).ok()) {
        bad = true;
        break;
      }
      uint32_t chunk = ReadPod<uint32_t>(page + 4);
      if (chunk > kLogPagePayload) {
        bad = true;
        break;
      }
      stream.insert(stream.end(), page + 8, page + 8 + chunk);
      pid = ReadPod<PageId>(page);
    }
    if (bad || stream.size() < kLogHeaderBytes) break;
    if (ReadPod<uint64_t>(stream.data()) != kLogMagic) break;
    log_epoch = ReadPod<uint64_t>(stream.data() + 8);
    n_images = ReadPod<uint32_t>(stream.data() + 16);
    const uint32_t crc = ReadPod<uint32_t>(stream.data() + 20);
    if (stream.size() != kLogHeaderBytes + size_t{n_images} * kLogImageBytes) {
      break;
    }
    if (Crc32cZeroedField(stream.data(), stream.size(), 20) != crc) break;
    log_ok = true;
  } while (false);

  if (!log_ok) {
    if (header_ok) return Status::OK();
    return Status::Corruption(
        "catalog header is torn and no valid commit log exists to repair it");
  }
  if (header_ok && log_epoch < header_epoch) {
    return Status::OK();  // stale log from before the header's commit
  }
  // Replay. This also runs when the header already carries the log's
  // epoch: physical redo is idempotent, and an in-place data-page write
  // torn *after* the header landed is only repaired by re-applying the
  // images unconditionally.
  PageId max_pid = 0;
  for (uint32_t i = 0; i < n_images; ++i) {
    const char* at = stream.data() + kLogHeaderBytes + i * kLogImageBytes;
    max_pid = std::max(max_pid, ReadPod<PageId>(at));
  }
  disk->SetFrontier(max_pid + 1);
  for (uint32_t i = 0; i < n_images; ++i) {
    const char* at = stream.data() + kLogHeaderBytes + i * kLogImageBytes;
    PBITREE_RETURN_IF_ERROR(disk->WritePage(ReadPod<PageId>(at), at + 4));
  }
  return disk->Sync();
}

StatusOr<std::unique_ptr<ElementSetStore>> ElementSetStore::Open(
    BufferManager* bm) {
  std::unique_ptr<ElementSetStore> store(new ElementSetStore(bm));
  PBITREE_ASSIGN_OR_RETURN(store->catalog_, Catalog::Load(bm));
  store->epoch_.store(store->catalog_.epoch(), std::memory_order_release);
  for (const std::string& name : store->catalog_.Names()) {
    if (store->catalog_.IsSegmented(name)) continue;
    PBITREE_ASSIGN_OR_RETURN(ElementSet set, store->catalog_.Get(bm, name));
    SetState st;
    st.name = name;
    st.set = std::move(set);
    store->sets_.emplace(name, std::move(st));
  }
  // Rediscover the committed log chain so the next commit can retire
  // its pages. Defensive bounds: a dangling chain (possible only after
  // an ignored torn log) just stops early and leaks those pages.
  PageId pid = store->catalog_.log_first_page();
  const uint32_t count = store->catalog_.log_page_count();
  DiskManager* disk = bm->disk();
  for (uint32_t i = 0; i < count; ++i) {
    if (pid == 0 || pid == kInvalidPageId || pid >= disk->frontier()) break;
    char page[kPageSize];
    if (!disk->ReadPage(pid, page).ok()) break;
    store->live_log_pages_.push_back(pid);
    pid = ReadPod<PageId>(page);
  }
  return store;
}

ElementSetStore::~ElementSetStore() {
  if (OwnsBatch()) {
    // Abandoned batch: free the pins so the pool stays usable; the
    // uncommitted bytes die with the pool (never flushed over old
    // state — tracked pages were pinned the whole time).
    ReleaseTrackedPins();
    batch_open_.store(false, std::memory_order_release);
    mu_.unlock();
  }
}

StatusOr<const ElementSet*> ElementSetStore::GetSet(
    const std::string& name) const {
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    if (catalog_.IsSegmented(name)) {
      return Status::InvalidArgument("element set '" + name +
                                     "' is segmented; open it through a "
                                     "SegmentStore");
    }
    return Status::NotFound("no element set named '" + name + "'");
  }
  return &it->second.set;
}

std::vector<std::string> ElementSetStore::SetNames() const {
  std::vector<std::string> out;
  out.reserve(sets_.size());
  for (const auto& [name, st] : sets_) out.push_back(name);
  return out;
}

void ElementSetStore::BeginBatch() {
  if (OwnsBatch()) return;
  mu_.lock();
  batch_owner_.store(std::this_thread::get_id(), std::memory_order_release);
  batch_open_.store(true, std::memory_order_release);
}

StatusOr<ElementSetStore::SetState*> ElementSetStore::MutableSet(
    const std::string& name) {
  if (catalog_.IsSegmented(name)) {
    return Status::Unimplemented(
        "mutating segmented set '" + name +
        "' is not supported; mutate an unsegmented database (or rebuild "
        "the segments offline)");
  }
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    return Status::NotFound("no element set named '" + name + "'");
  }
  return &it->second;
}

Status ElementSetStore::ScanMeta(SetState* s) {
  SetMeta m;
  uint64_t min_start = UINT64_MAX;
  uint64_t max_end = 0;
  uint64_t mask = 0;
  bool sorted = true;
  bool any = false;
  std::vector<ElementRecord> recs;
  const size_t n_pages = s->set.file.pages().size();
  for (size_t pi = 0; pi < n_pages; ++pi) {
    PBITREE_RETURN_IF_ERROR(s->set.file.ReadPageRecords(bm_, pi, &recs));
    for (const ElementRecord& r : recs) {
      const int h = HeightOf(r.code);
      ++m.height_counts[h];
      mask |= uint64_t{1} << h;
      min_start = std::min(min_start, StartOf(r.code));
      max_end = std::max(max_end, EndOf(r.code));
      if (any && DocLess(r.code, m.last_rec.code)) sorted = false;
      m.last_rec = r;
      any = true;
    }
  }
  m.loaded = true;
  s->meta = m;
  s->set.height_mask = mask;
  s->set.min_start = any ? min_start : UINT64_MAX;
  s->set.max_end = any ? max_end : 0;
  s->set.sorted_by_start = sorted;
  return Status::OK();
}

Status ElementSetStore::EnsureMeta(SetState* s) {
  if (s->meta.loaded) return Status::OK();
  return ScanMeta(s);
}

void ElementSetStore::SnapshotSet(const std::string& name, SetState* s) {
  if (snapshots_.count(name) > 0) return;
  SetSnapshot snap;
  snap.set = s->set;
  snap.meta = s->meta;
  snapshots_.emplace(name, std::move(snap));
}

Status ElementSetStore::TrackPage(PageId pid) {
  if (batch_new_set_.count(pid) > 0 || tracked_.count(pid) > 0) {
    return Status::OK();
  }
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm_->FetchPage(pid));
  std::vector<char> img(kPageSize);
  std::memcpy(img.data(), p->data(), kPageSize);
  tracked_.emplace(pid, std::move(img));
  return Status::OK();  // deliberately left pinned until the batch ends
}

void ElementSetStore::ReleaseTrackedPins() {
  for (const auto& [pid, img] : tracked_) {
    (void)bm_->UnpinPage(pid, /*dirty=*/false);
  }
}

Status ElementSetStore::AppendToSet(const std::string& name, SetState* s,
                                    const ElementRecord& rec) {
  BeginBatch();
  PBITREE_RETURN_IF_ERROR(EnsureMeta(s));
  SnapshotSet(name, s);
  if (!s->set.file.pages().empty()) {
    PBITREE_RETURN_IF_ERROR(TrackPage(s->set.file.pages().back()));
  }
  const size_t pages_before = s->set.file.pages().size();
  {
    HeapFile::Appender app(bm_, &s->set.file);
    PBITREE_RETURN_IF_ERROR(app.Append(&rec));
    PBITREE_RETURN_IF_ERROR(app.Finish());
  }
  for (size_t i = pages_before; i < s->set.file.pages().size(); ++i) {
    const PageId pid = s->set.file.pages()[i];
    batch_new_pages_.push_back(pid);
    batch_new_set_.insert(pid);
  }
  const int h = HeightOf(rec.code);
  if (s->set.file.num_records() == 1) {
    s->set.sorted_by_start = true;
  } else if (DocLess(rec.code, s->meta.last_rec.code)) {
    s->set.sorted_by_start = false;
  }
  ++s->meta.height_counts[h];
  s->meta.last_rec = rec;
  s->set.height_mask |= uint64_t{1} << h;
  s->set.min_start = std::min(s->set.min_start, StartOf(rec.code));
  s->set.max_end = std::max(s->set.max_end, EndOf(rec.code));
  s->dirty = true;
  return Status::OK();
}

Status ElementSetStore::InsertRecord(const std::string& name,
                                     const ElementRecord& rec) {
  // The lookup reads catalog_/sets_, which a concurrent thread's Commit
  // mutates under the writer lock — open the batch (taking that lock)
  // first. A validation failure leaves the batch open, like any other
  // failed mutation: the caller commits or rolls back.
  BeginBatch();
  PBITREE_ASSIGN_OR_RETURN(SetState * s, MutableSet(name));
  if (!IsValidCode(rec.code, s->set.spec)) {
    return Status::InvalidArgument(
        "record code is not a valid code of the set's PBiTree");
  }
  return AppendToSet(name, s, rec);
}

StatusOr<ElementSetStore::RecordLoc> ElementSetStore::Locate(SetState* s,
                                                             Code code) {
  std::vector<ElementRecord> recs;
  const size_t n_pages = s->set.file.pages().size();
  for (size_t pi = 0; pi < n_pages; ++pi) {
    PBITREE_RETURN_IF_ERROR(s->set.file.ReadPageRecords(bm_, pi, &recs));
    for (size_t slot = 0; slot < recs.size(); ++slot) {
      if (recs[slot].code == code) {
        RecordLoc loc;
        loc.state = s;
        loc.page_index = pi;
        loc.slot = slot;
        loc.rec = recs[slot];
        return loc;
      }
    }
  }
  return Status::NotFound("no stored element with that code");
}

Status ElementSetStore::DeleteElement(const std::string& name, Code code) {
  BeginBatch();  // before the lookup: MutableSet reads Commit-mutated state
  PBITREE_ASSIGN_OR_RETURN(SetState * s, MutableSet(name));
  PBITREE_RETURN_IF_ERROR(EnsureMeta(s));
  PBITREE_ASSIGN_OR_RETURN(RecordLoc loc, Locate(s, code));
  SnapshotSet(name, s);
  PBITREE_RETURN_IF_ERROR(TrackPage(s->set.file.pages()[loc.page_index]));
  PBITREE_RETURN_IF_ERROR(
      s->set.file.RemoveRecordAt(bm_, loc.page_index, loc.slot));
  const int h = HeightOf(code);
  if (s->meta.height_counts[h] > 0) --s->meta.height_counts[h];
  if (s->meta.height_counts[h] == 0) {
    s->set.height_mask &= ~(uint64_t{1} << h);
  }
  s->dirty = true;
  if (StartOf(code) == s->set.min_start || EndOf(code) == s->set.max_end) {
    s->needs_rescan = true;  // extremum gone; exact range needs a rescan
  }
  if (loc.rec == s->meta.last_rec) {
    // The sortedness sentinel was deleted; rescan now so a later append
    // in this batch compares against the real new tail.
    PBITREE_RETURN_IF_ERROR(ScanMeta(s));
    s->needs_rescan = false;
  }
  return Status::OK();
}

Status ElementSetStore::CollectInterval(int tree_height, CodeInterval interval,
                                        Code exclude,
                                        std::vector<RecordLoc>* out) {
  std::vector<ElementRecord> recs;
  for (auto& [name, st] : sets_) {
    if (st.set.spec.height != tree_height) continue;
    // Codes lie inside [min_start, max_end]; disjoint ranges can skip.
    if (st.set.min_start <= st.set.max_end &&
        (st.set.max_end < interval.lo || st.set.min_start > interval.hi)) {
      continue;
    }
    const size_t n_pages = st.set.file.pages().size();
    for (size_t pi = 0; pi < n_pages; ++pi) {
      PBITREE_RETURN_IF_ERROR(st.set.file.ReadPageRecords(bm_, pi, &recs));
      for (size_t slot = 0; slot < recs.size(); ++slot) {
        const Code c = recs[slot].code;
        if (c < interval.lo || c > interval.hi || c == exclude) continue;
        RecordLoc loc;
        loc.state = &st;
        loc.page_index = pi;
        loc.slot = slot;
        loc.rec = recs[slot];
        out->push_back(loc);
      }
    }
  }
  return Status::OK();
}

StatusOr<Code> ElementSetStore::InsertChild(const std::string& name,
                                            Code parent, uint32_t tag,
                                            uint32_t doc) {
  BeginBatch();  // before the lookup: MutableSet reads Commit-mutated state
  PBITREE_ASSIGN_OR_RETURN(SetState * s, MutableSet(name));
  const PBiTreeSpec spec = s->set.spec;
  if (!IsValidCode(parent, spec)) {
    return Status::InvalidArgument(
        "parent is not a valid code of the set's PBiTree");
  }
  std::vector<RecordLoc> inside;
  PBITREE_RETURN_IF_ERROR(
      CollectInterval(spec.height, SubtreeInterval(parent), parent, &inside));
  // The new element must be exactly a child of `parent`: its subtree
  // may not touch any *stored* subtree below parent, across every set
  // of the same PBiTree (containment joins relate sets to each other).
  // The maximal stored subtrees are the siblings AllocateChildCode
  // places against.
  std::vector<Code> codes;
  codes.reserve(inside.size());
  for (const RecordLoc& loc : inside) codes.push_back(loc.rec.code);
  std::sort(codes.begin(), codes.end(), DocLess);
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  std::vector<Code> maximal;
  uint64_t covered_end = 0;
  bool covered_any = false;
  for (Code c : codes) {
    if (covered_any && StartOf(c) <= covered_end) continue;  // nested
    maximal.push_back(c);
    covered_end = EndOf(c);
    covered_any = true;
  }
  StatusOr<Code> alloc = AllocateChildCode(parent, maximal, spec);
  if (alloc.ok()) {
    const Code code = *alloc;
    PBITREE_RETURN_IF_ERROR(
        AppendToSet(name, s, ElementRecord{code, tag, doc}));
    return code;
  }
  if (!alloc.status().IsSlackExhausted()) return alloc.status();
  return Rebinarize(name, s, parent, tag, doc);
}

StatusOr<Code> ElementSetStore::Rebinarize(const std::string& name,
                                           SetState* target, Code parent,
                                           uint32_t tag, uint32_t doc) {
  const PBiTreeSpec spec = target->set.spec;
  if (HeightOf(parent) == 0) {
    return Status::SlackExhausted(
        "parent is a leaf of the PBiTree; its subtree cannot take children");
  }
  std::vector<RecordLoc> inside;
  PBITREE_RETURN_IF_ERROR(
      CollectInterval(spec.height, SubtreeInterval(parent), parent, &inside));

  // Rebuild the logical forest under `parent` from the stored codes.
  // Duplicate codes (the same logical node stored in several sets) form
  // ONE forest node and keep receiving one shared code. Pre-order =
  // (Start asc, height desc); a containment stack recovers the edges.
  std::vector<Code> order;
  order.reserve(inside.size());
  for (const RecordLoc& loc : inside) order.push_back(loc.rec.code);
  std::sort(order.begin(), order.end(), DocLess);
  order.erase(std::unique(order.begin(), order.end()), order.end());

  struct Node {
    Code old_code = kInvalidCode;  // kInvalidCode marks the new element
    std::vector<int> kids;
    uint64_t weight = 1;
  };
  std::vector<Node> nodes;
  nodes.reserve(order.size() + 1);
  std::vector<int> roots;
  std::vector<int> stack;
  for (Code c : order) {
    const int id = static_cast<int>(nodes.size());
    nodes.push_back(Node{c, {}, 1});
    while (!stack.empty() && StartOf(c) > EndOf(nodes[stack.back()].old_code)) {
      stack.pop_back();
    }
    if (stack.empty()) {
      roots.push_back(id);
    } else {
      nodes[stack.back()].kids.push_back(id);
    }
    stack.push_back(id);
  }
  // Pre-order gives every parent a smaller id than its children, so one
  // reverse sweep finalizes the subtree weights.
  for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
    for (int kid : nodes[id].kids) nodes[id].weight += nodes[kid].weight;
  }
  const int new_id = static_cast<int>(nodes.size());
  nodes.push_back(Node{});  // the element being inserted, last child
  roots.push_back(new_id);

  // Order-preserving weight-balanced embedding of the forest into the
  // free positions of parent's subtree. Each forest node gets a slot;
  // forest ancestry maps to slot-subtree ancestry, so every containment
  // relationship — within and across sets — is preserved exactly.
  std::vector<Code> assigned(nodes.size(), kInvalidCode);
  std::function<Status(Code, const std::vector<int>&)> embed_forest;
  std::function<Status(Code, const std::vector<int>&)> embed_split;
  embed_split = [&](Code slot, const std::vector<int>& forest) -> Status {
    // Distributes `forest` over slot's two child subtrees, splitting at
    // the point that balances the subtree weights (order preserved).
    if (forest.empty()) return Status::OK();
    const int h = HeightOf(slot);
    if (h == 0) {
      return Status::SlackExhausted(
          "subtree too full to re-binarize around the new element");
    }
    uint64_t total = 0;
    for (int id : forest) total += nodes[id].weight;
    uint64_t best_max = UINT64_MAX;
    size_t best_k = 0;
    uint64_t prefix = 0;
    for (size_t k = 0; k <= forest.size(); ++k) {
      if (k > 0) prefix += nodes[forest[k - 1]].weight;
      const uint64_t m = std::max(prefix, total - prefix);
      if (m < best_max) {
        best_max = m;
        best_k = k;
      }
    }
    const Code half = Code{1} << (h - 1);
    std::vector<int> left(forest.begin(), forest.begin() + best_k);
    std::vector<int> right(forest.begin() + best_k, forest.end());
    PBITREE_RETURN_IF_ERROR(embed_forest(slot - half, left));
    return embed_forest(slot + half, right);
  };
  embed_forest = [&](Code slot, const std::vector<int>& forest) -> Status {
    if (forest.empty()) return Status::OK();
    const int h = HeightOf(slot);
    uint64_t total = 0;
    for (int id : forest) total += nodes[id].weight;
    if (total > (uint64_t{2} << h) - 1) {  // capacity 2^(h+1) - 1
      return Status::SlackExhausted(
          "subtree too full to re-binarize around the new element");
    }
    if (forest.size() == 1) {
      const int id = forest[0];
      assigned[id] = slot;
      return embed_split(slot, nodes[id].kids);
    }
    return embed_split(slot, forest);
  };
  PBITREE_RETURN_IF_ERROR(embed_split(parent, roots));

  std::map<Code, Code> remap;
  for (size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].old_code != kInvalidCode) {
      remap[nodes[id].old_code] = assigned[id];
    }
  }
  const Code new_code = assigned[new_id];

  // Apply: rewrite every relocated record in place (scan order is
  // untouched), then append the new element. Pages are tracked first so
  // both rollback and the commit log cover them.
  for (const RecordLoc& loc : inside) {
    const Code nc = remap[loc.rec.code];
    if (nc == loc.rec.code) continue;
    SetState* st = loc.state;
    SnapshotSet(st->name, st);
    PBITREE_RETURN_IF_ERROR(TrackPage(st->set.file.pages()[loc.page_index]));
    ElementRecord nr = loc.rec;
    nr.code = nc;
    PBITREE_RETURN_IF_ERROR(
        st->set.file.RewriteRecordAt(bm_, loc.page_index, loc.slot, nr));
    st->dirty = true;
    st->needs_rescan = true;  // heights/ranges/sortedness all changed
  }
  for (auto& [nm, st] : sets_) {
    if (st.needs_rescan && st.dirty) {
      // Keep in-batch metadata (last_rec, ranges) exact for later
      // mutations of this batch.
      PBITREE_RETURN_IF_ERROR(ScanMeta(&st));
      st.needs_rescan = false;
    }
  }
  PBITREE_RETURN_IF_ERROR(
      AppendToSet(name, target, ElementRecord{new_code, tag, doc}));
  return new_code;
}

Status ElementSetStore::Commit() {
  if (!batch_open_.load(std::memory_order_acquire)) return Status::OK();
  if (!OwnsBatch()) {
    return Status::InvalidArgument(
        "the open mutation batch belongs to another thread");
  }
  const bool any = !tracked_.empty() || !batch_new_pages_.empty();
  if (!any) {  // nothing changed: close without burning an epoch
    ReleaseTrackedPins();
    tracked_.clear();
    batch_new_pages_.clear();
    batch_new_set_.clear();
    snapshots_.clear();
    batch_open_.store(false, std::memory_order_release);
    mu_.unlock();
    return Status::OK();
  }

  // Phase 1 — prepare (any failure leaves the batch open and the old
  // state fully intact). Exact metadata for every set that needs it,
  // then the new catalog image on a copy.
  for (auto& [nm, st] : sets_) {
    if (st.dirty && st.needs_rescan) {
      PBITREE_RETURN_IF_ERROR(ScanMeta(&st));
      st.needs_rescan = false;
    }
  }
  Catalog cat = catalog_;
  for (auto& [nm, st] : sets_) {
    if (!st.dirty) continue;
    uint32_t extra = 0;
    if (StatusOr<uint32_t> f = cat.EntryFlags(nm); f.ok()) {
      extra = *f & Catalog::kFlagHasReplicas;
    }
    PBITREE_RETURN_IF_ERROR(cat.Put(nm, st.set, extra));
  }
  const uint64_t new_epoch = epoch_.load(std::memory_order_acquire) + 1;

  // After-images of every modified page, straight from the pool (the
  // writer lock guarantees nobody changes them underneath us).
  std::vector<PageId> mods;
  mods.reserve(tracked_.size() + batch_new_pages_.size());
  for (const auto& [pid, img] : tracked_) mods.push_back(pid);
  for (PageId pid : batch_new_pages_) mods.push_back(pid);
  std::sort(mods.begin(), mods.end());
  mods.erase(std::unique(mods.begin(), mods.end()), mods.end());
  std::vector<std::pair<PageId, std::vector<char>>> images;
  images.reserve(mods.size());
  for (PageId pid : mods) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm_->FetchPage(pid));
    std::vector<char> img(kPageSize);
    std::memcpy(img.data(), p->data(), kPageSize);
    PBITREE_RETURN_IF_ERROR(bm_->UnpinPage(pid, /*dirty=*/false));
    images.emplace_back(pid, std::move(img));
  }

  // Phase 2 — write-ahead log. The new chain takes fresh pages: the
  // previous commit's chain is retired only after the new header is
  // durable, so the old header's log pointer keeps naming an intact,
  // replayable chain until the instant the new header supersedes it —
  // a crash anywhere before that recovers the old state in full.
  DiskManager* disk = bm_->disk();
  const size_t n_images = images.size() + 1;  // + the header image
  const size_t stream_bytes = kLogHeaderBytes + n_images * kLogImageBytes;
  const size_t n_log = (stream_bytes + kLogPagePayload - 1) / kLogPagePayload;
  std::vector<PageId> log_pids;
  log_pids.reserve(n_log);
  for (size_t i = 0; i < n_log; ++i) {
    PBITREE_ASSIGN_OR_RETURN(PageId pid, disk->AllocatePage());
    log_pids.push_back(pid);
  }
  cat.set_epoch(new_epoch);
  cat.set_log(log_pids[0], static_cast<uint32_t>(n_log));
  std::vector<char> header_img(kPageSize);
  cat.RenderHeader(header_img.data(), disk->frontier());

  std::vector<char> stream;
  stream.reserve(stream_bytes);
  AppendPod<uint64_t>(&stream, kLogMagic);
  AppendPod<uint64_t>(&stream, new_epoch);
  AppendPod<uint32_t>(&stream, static_cast<uint32_t>(n_images));
  AppendPod<uint32_t>(&stream, 0);  // CRC patched below
  AppendPod<PageId>(&stream, 0);    // image 0: the new catalog header
  stream.insert(stream.end(), header_img.begin(), header_img.end());
  for (const auto& [pid, img] : images) {
    AppendPod<PageId>(&stream, pid);
    stream.insert(stream.end(), img.begin(), img.end());
  }
  const uint32_t crc = Crc32c(stream.data(), stream.size());
  std::memcpy(stream.data() + 20, &crc, sizeof(crc));

  // Write the chain, sync, and read it back: a commit only passes the
  // point of no return once the log is proven durable. Failure here —
  // including a torn log-page write caught by the read-back — frees
  // the chain and leaves the batch open (retry or roll back).
  Status log_status = Status::OK();
  size_t off = 0;
  for (size_t i = 0; i < n_log && log_status.ok(); ++i) {
    char page[kPageSize];
    std::memset(page, 0, sizeof(page));
    const PageId next = (i + 1 < n_log) ? log_pids[i + 1] : kInvalidPageId;
    const uint32_t chunk = static_cast<uint32_t>(
        std::min(kLogPagePayload, stream.size() - off));
    std::memcpy(page, &next, sizeof(next));
    std::memcpy(page + 4, &chunk, sizeof(chunk));
    std::memcpy(page + 8, stream.data() + off, chunk);
    log_status = disk->WritePage(log_pids[i], page);
    off += chunk;
  }
  if (log_status.ok()) log_status = disk->Sync();
  if (log_status.ok()) {
    std::vector<char> readback;
    readback.reserve(stream.size());
    for (size_t i = 0; i < n_log && log_status.ok(); ++i) {
      char page[kPageSize];
      log_status = disk->ReadPage(log_pids[i], page);
      if (!log_status.ok()) break;
      const uint32_t chunk = ReadPod<uint32_t>(page + 4);
      if (chunk > kLogPagePayload) {
        log_status = Status::Corruption("commit log read-back mismatch");
        break;
      }
      readback.insert(readback.end(), page + 8, page + 8 + chunk);
    }
    if (log_status.ok() &&
        (readback.size() != stream.size() ||
         std::memcmp(readback.data(), stream.data(), stream.size()) != 0)) {
      log_status = Status::Corruption("commit log read-back mismatch");
    }
  }
  if (!log_status.ok()) {
    for (PageId pid : log_pids) (void)disk->FreePage(pid);
    return Status::IOError("commit log could not be made durable (" +
                           log_status.ToString() + "); batch left open");
  }

  // Phase 3 — publish. The new header carries the epoch and log
  // pointer that make the chain above discoverable, so it must be
  // durable BEFORE any in-place data write: up to this sync a crash
  // finds the old header naming the old chain (the old state, in
  // full); past it, recovery replays the new log over any torn
  // in-place write. Its recovery-critical scalars sit in the first
  // half of the page, which even a torn header write leaves intact. A
  // header write that fails with the process alive is still safe to
  // back out of — the on-disk header was never replaced — so the pool
  // copy is restored, the chain freed, and the batch stays open.
  Status publish = Status::OK();
  if (StatusOr<Page*> hp = bm_->FetchPage(0); hp.ok()) {
    std::memcpy((*hp)->data(), header_img.data(), kPageSize);
    publish = bm_->UnpinPage(0, /*dirty=*/true);
    if (publish.ok()) publish = bm_->FlushPage(0);
    if (publish.ok()) publish = disk->Sync();
    if (!publish.ok()) {
      std::vector<char> old_img(kPageSize);
      catalog_.RenderHeader(old_img.data(), disk->frontier());
      if (StatusOr<Page*> rp = bm_->FetchPage(0); rp.ok()) {
        std::memcpy((*rp)->data(), old_img.data(), kPageSize);
        (void)bm_->UnpinPage(0, /*dirty=*/true);
      }
    }
  } else {
    publish = hp.status();
  }
  if (!publish.ok()) {
    for (PageId pid : log_pids) (void)disk->FreePage(pid);
    return Status::IOError("commit header could not be published (" +
                           publish.ToString() + "); batch left open");
  }

  // Phase 4 — point of no return. The batch is committed: even if
  // every in-place write below fails or tears, reopening the database
  // replays the now-discoverable verified log. Apply everything,
  // remember the first error, finalize the in-memory state regardless.
  Status apply = Status::OK();
  auto note = [&apply](Status s) {
    if (apply.ok() && !s.ok()) apply = std::move(s);
  };
  for (const auto& [pid, img] : images) note(bm_->FlushPage(pid));
  note(disk->Sync());
  for (PageId pid : live_log_pages_) note(disk->FreePage(pid));
  live_log_pages_ = std::move(log_pids);

  catalog_ = std::move(cat);
  for (auto& [nm, st] : sets_) {
    if (st.dirty) {
      st.dirty = false;
      st.needs_rescan = false;
    }
  }
  ReleaseTrackedPins();
  tracked_.clear();
  batch_new_pages_.clear();
  batch_new_set_.clear();
  snapshots_.clear();
  epoch_.store(new_epoch, std::memory_order_release);
  batch_open_.store(false, std::memory_order_release);
  mu_.unlock();
  return apply;
}

Status ElementSetStore::Rollback() {
  if (!batch_open_.load(std::memory_order_acquire)) return Status::OK();
  if (!OwnsBatch()) {
    return Status::InvalidArgument(
        "the open mutation batch belongs to another thread");
  }
  Status first = Status::OK();
  auto note = [&first](Status s) {
    if (first.ok() && !s.ok()) first = std::move(s);
  };
  // Byte-exact restore of every pre-existing page we touched...
  for (const auto& [pid, img] : tracked_) {
    StatusOr<Page*> p = bm_->FetchPage(pid);
    if (!p.ok()) {
      note(p.status());
      continue;
    }
    std::memcpy((*p)->data(), img.data(), kPageSize);
    note(bm_->UnpinPage(pid, /*dirty=*/true));
  }
  ReleaseTrackedPins();
  // ...discard of every page the batch allocated...
  for (PageId pid : batch_new_pages_) note(bm_->DeletePage(pid));
  // ...and of all derived in-memory state.
  for (const auto& [nm, snap] : snapshots_) {
    SetState& st = sets_[nm];
    st.set = snap.set;
    st.meta = snap.meta;
    st.dirty = false;
    st.needs_rescan = false;
  }
  tracked_.clear();
  batch_new_pages_.clear();
  batch_new_set_.clear();
  snapshots_.clear();
  batch_open_.store(false, std::memory_order_release);
  mu_.unlock();
  return first;
}

}  // namespace pbitree
