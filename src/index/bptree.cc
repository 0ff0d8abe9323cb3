#include "index/bptree.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace pbitree {

namespace {

// ---- Raw node accessors (memcpy-based; pages are unaligned byte blobs).

bool NodeIsLeaf(const Page* p) { return p->data()[0] == 1; }
void SetNodeLeaf(Page* p, bool leaf) { p->data()[0] = leaf ? 1 : 0; }

uint16_t NodeCount(const Page* p) {
  uint16_t v;
  std::memcpy(&v, p->data() + 2, 2);
  return v;
}
void SetNodeCount(Page* p, uint16_t v) { std::memcpy(p->data() + 2, &v, 2); }

PageId LeafNext(const Page* p) {
  PageId v;
  std::memcpy(&v, p->data() + 4, 4);
  return v;
}
void SetLeafNext(Page* p, PageId v) { std::memcpy(p->data() + 4, &v, 4); }

// Leaf entries: 24 bytes at offset 8.
constexpr size_t kLeafEntrySize = 24;
char* LeafEntry(Page* p, size_t i) {
  return p->data() + 8 + i * kLeafEntrySize;
}
const char* LeafEntry(const Page* p, size_t i) {
  return p->data() + 8 + i * kLeafEntrySize;
}
uint64_t LeafKey(const Page* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, LeafEntry(p, i), 8);
  return k;
}
void LeafRead(const Page* p, size_t i, ElementRecord* rec) {
  std::memcpy(rec, LeafEntry(p, i) + 8, sizeof(ElementRecord));
}
void LeafWrite(Page* p, size_t i, uint64_t key, const ElementRecord& rec) {
  std::memcpy(LeafEntry(p, i), &key, 8);
  std::memcpy(LeafEntry(p, i) + 8, &rec, sizeof(ElementRecord));
}

// Interior: leftmost child u32 at offset 8; entries (key u64, child u32)
// of 12 bytes at offset 12.
constexpr size_t kInteriorEntrySize = 12;
PageId InteriorChild0(const Page* p) {
  PageId v;
  std::memcpy(&v, p->data() + 8, 4);
  return v;
}
void SetInteriorChild0(Page* p, PageId v) { std::memcpy(p->data() + 8, &v, 4); }
char* InteriorEntry(Page* p, size_t i) {
  return p->data() + 12 + i * kInteriorEntrySize;
}
const char* InteriorEntry(const Page* p, size_t i) {
  return p->data() + 12 + i * kInteriorEntrySize;
}
uint64_t InteriorKey(const Page* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, InteriorEntry(p, i), 8);
  return k;
}
PageId InteriorChild(const Page* p, size_t i) {
  PageId v;
  std::memcpy(&v, InteriorEntry(p, i) + 8, 4);
  return v;
}
void InteriorWrite(Page* p, size_t i, uint64_t key, PageId child) {
  std::memcpy(InteriorEntry(p, i), &key, 8);
  std::memcpy(InteriorEntry(p, i) + 8, &child, 4);
}

/// Child index for inserting `key`: the last separator <= key, i.e.
/// child 0 when key < key[0], child i+1 when key[i] <= key < key[i+1].
/// Duplicates are appended after existing equal keys.
size_t ChildSlot(const Page* p, uint64_t key) {
  size_t lo = 0, hi = NodeCount(p);  // answer in [0, count]
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (InteriorKey(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // number of separators <= key
}
PageId ChildFor(const Page* p, uint64_t key) {
  size_t slot = ChildSlot(p, key);
  return slot == 0 ? InteriorChild0(p) : InteriorChild(p, slot - 1);
}

/// Child index for *searching* the first occurrence of `key`: strict
/// comparison, so a run of duplicates spanning a node boundary is
/// entered at its leftmost leaf (scans walk the leaf chain forward).
PageId ChildForLowerBound(const Page* p, uint64_t key) {
  size_t lo = 0, hi = NodeCount(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (InteriorKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? InteriorChild0(p) : InteriorChild(p, lo - 1);
}

/// First leaf slot with key >= lo.
size_t LeafLowerBound(const Page* p, uint64_t lo) {
  size_t a = 0, b = NodeCount(p);
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (LeafKey(p, mid) < lo) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a;
}

}  // namespace

Result<BPTree> BPTree::CreateEmpty(BufferManager* bm, KeyKind kind) {
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
  SetNodeLeaf(p, true);
  SetNodeCount(p, 0);
  SetLeafNext(p, kInvalidPageId);
  BPTree t;
  t.root_ = p->page_id();
  t.kind_ = kind;
  t.num_pages_ = 1;
  t.height_ = 1;
  PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), true));
  return t;
}

Result<BPTree> BPTree::BulkLoad(BufferManager* bm, const HeapFile& sorted_input,
                                KeyKind kind, double fill) {
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("BulkLoad: fill must be in (0, 1]");
  }
  const size_t leaf_target =
      std::max<size_t>(1, static_cast<size_t>(kLeafCapacity * fill));
  const size_t interior_target =
      std::max<size_t>(2, static_cast<size_t>(kInteriorCapacity * fill));

  BPTree t;
  t.kind_ = kind;

  struct LevelEntry {
    uint64_t first_key;
    PageId pid;
  };
  std::vector<LevelEntry> level;  // (first key, page) of each leaf

  // ---- Leaf level.
  HeapFile::Scanner scan(bm, sorted_input);
  ElementRecord rec;
  Status st;
  Page* leaf = nullptr;
  uint64_t prev_key = 0;
  bool have_prev = false;
  while (scan.NextElement(&rec, &st)) {
    uint64_t key = KeyOf(rec, kind);
    if (have_prev && key < prev_key) {
      if (leaf != nullptr) bm->UnpinPage(leaf->page_id(), true);
      return Status::InvalidArgument("BulkLoad: input not sorted by key");
    }
    prev_key = key;
    have_prev = true;
    if (leaf != nullptr && NodeCount(leaf) >= leaf_target) {
      PBITREE_ASSIGN_OR_RETURN(Page * next, bm->NewPage());
      SetNodeLeaf(next, true);
      SetNodeCount(next, 0);
      SetLeafNext(next, kInvalidPageId);
      SetLeafNext(leaf, next->page_id());
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), true));
      leaf = next;
      ++t.num_pages_;
    }
    if (leaf == nullptr) {
      PBITREE_ASSIGN_OR_RETURN(Page * first, bm->NewPage());
      SetNodeLeaf(first, true);
      SetNodeCount(first, 0);
      SetLeafNext(first, kInvalidPageId);
      leaf = first;
      ++t.num_pages_;
    }
    uint16_t n = NodeCount(leaf);
    if (n == 0) level.push_back({key, leaf->page_id()});
    LeafWrite(leaf, n, key, rec);
    SetNodeCount(leaf, n + 1);
    ++t.num_entries_;
  }
  PBITREE_RETURN_IF_ERROR(st);
  if (leaf != nullptr) {
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), true));
  }
  if (level.empty()) return CreateEmpty(bm, kind);

  // ---- Build interior levels bottom-up.
  t.height_ = 1;
  while (level.size() > 1) {
    std::vector<LevelEntry> parent;
    size_t i = 0;
    while (i < level.size()) {
      PBITREE_ASSIGN_OR_RETURN(Page * node, bm->NewPage());
      SetNodeLeaf(node, false);
      SetNodeCount(node, 0);
      ++t.num_pages_;
      parent.push_back({level[i].first_key, node->page_id()});
      SetInteriorChild0(node, level[i].pid);
      ++i;
      uint16_t n = 0;
      while (i < level.size() && n < interior_target) {
        InteriorWrite(node, n, level[i].first_key, level[i].pid);
        ++n;
        ++i;
      }
      SetNodeCount(node, n);
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(node->page_id(), true));
    }
    level = std::move(parent);
    ++t.height_;
  }
  t.root_ = level[0].pid;
  return t;
}

Result<Page*> BPTree::DescendToLeaf(BufferManager* bm, uint64_t key) const {
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(root_));
  while (!NodeIsLeaf(p)) {
    PageId child = ChildForLowerBound(p, key);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), false));
    PBITREE_ASSIGN_OR_RETURN(p, bm->FetchPage(child));
  }
  return p;
}

Status BPTree::PointSearch(BufferManager* bm, uint64_t key,
                           ElementRecord* out) const {
  ElementRecord rec;
  PBITREE_ASSIGN_OR_RETURN(bool found, SeekCeil(bm, key, &rec));
  if (found && KeyOf(rec, kind_) == key) {
    *out = rec;
    return Status::OK();
  }
  return Status::NotFound("key " + std::to_string(key) + " not in index");
}

Status BPTree::Insert(BufferManager* bm, const ElementRecord& rec) {
  const uint64_t key = KeyOf(rec, kind_);

  // Descend remembering the path for splits.
  struct PathEntry {
    PageId pid;
  };
  std::vector<PathEntry> path;
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(root_));
  while (!NodeIsLeaf(p)) {
    path.push_back({p->page_id()});
    PageId child = ChildFor(p, key);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), false));
    PBITREE_ASSIGN_OR_RETURN(p, bm->FetchPage(child));
  }

  // Insert into the leaf, splitting as needed and propagating the new
  // separator upward.
  uint64_t up_key = 0;
  PageId up_child = kInvalidPageId;

  {
    uint16_t n = NodeCount(p);
    size_t pos = LeafLowerBound(p, key);
    // Place duplicates after existing equal keys.
    while (pos < n && LeafKey(p, pos) == key) ++pos;
    if (n < kLeafCapacity) {
      std::memmove(LeafEntry(p, pos + 1), LeafEntry(p, pos),
                   (n - pos) * kLeafEntrySize);
      LeafWrite(p, pos, key, rec);
      SetNodeCount(p, n + 1);
      ++num_entries_;
      return bm->UnpinPage(p->page_id(), true);
    }
    // Split the leaf.
    PBITREE_ASSIGN_OR_RETURN(Page * right, bm->NewPage());
    SetNodeLeaf(right, true);
    ++num_pages_;
    size_t mid = (n + 1) / 2;
    size_t right_n = n - mid;
    std::memcpy(LeafEntry(right, 0), LeafEntry(p, mid),
                right_n * kLeafEntrySize);
    SetNodeCount(right, static_cast<uint16_t>(right_n));
    SetNodeCount(p, static_cast<uint16_t>(mid));
    SetLeafNext(right, LeafNext(p));
    SetLeafNext(p, right->page_id());
    // Insert into the proper half.
    Page* target = pos <= mid ? p : right;
    size_t tpos = pos <= mid ? pos : pos - mid;
    uint16_t tn = NodeCount(target);
    std::memmove(LeafEntry(target, tpos + 1), LeafEntry(target, tpos),
                 (tn - tpos) * kLeafEntrySize);
    LeafWrite(target, tpos, key, rec);
    SetNodeCount(target, tn + 1);
    ++num_entries_;
    up_key = LeafKey(right, 0);
    up_child = right->page_id();
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(right->page_id(), true));
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), true));
  }

  // Propagate splits up the path.
  while (up_child != kInvalidPageId && !path.empty()) {
    PageId pid = path.back().pid;
    path.pop_back();
    PBITREE_ASSIGN_OR_RETURN(Page * node, bm->FetchPage(pid));
    uint16_t n = NodeCount(node);
    size_t slot = ChildSlot(node, up_key);
    if (n < kInteriorCapacity) {
      std::memmove(InteriorEntry(node, slot + 1), InteriorEntry(node, slot),
                   (n - slot) * kInteriorEntrySize);
      InteriorWrite(node, slot, up_key, up_child);
      SetNodeCount(node, n + 1);
      up_child = kInvalidPageId;
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, true));
      break;
    }
    // Split interior node: materialise the n+1 separators and n+2
    // children with (up_key, up_child) inserted at `slot`.
    std::vector<uint64_t> keys(n + 1, 0);
    std::vector<PageId> ch(n + 2, kInvalidPageId);
    ch[0] = InteriorChild0(node);
    size_t ki = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i == slot) {
        keys[ki] = up_key;
        ch[ki + 1] = up_child;
        ++ki;
      }
      keys[ki] = InteriorKey(node, i);
      ch[ki + 1] = InteriorChild(node, i);
      ++ki;
    }
    if (slot == n) {
      keys[ki] = up_key;
      ch[ki + 1] = up_child;
    }
    // Split point: middle separator moves up.
    size_t total = n + 1;  // separators now
    size_t mid = total / 2;
    uint64_t promote = keys[mid];
    // Left node keeps separators [0, mid) and children [0, mid].
    SetNodeCount(node, static_cast<uint16_t>(mid));
    SetInteriorChild0(node, ch[0]);
    for (size_t i = 0; i < mid; ++i) InteriorWrite(node, i, keys[i], ch[i + 1]);
    // Right node gets separators (mid, total) and children [mid+1, total+1).
    PBITREE_ASSIGN_OR_RETURN(Page * right, bm->NewPage());
    SetNodeLeaf(right, false);
    ++num_pages_;
    size_t rn = total - mid - 1;
    SetInteriorChild0(right, ch[mid + 1]);
    for (size_t i = 0; i < rn; ++i) {
      InteriorWrite(right, i, keys[mid + 1 + i], ch[mid + 2 + i]);
    }
    SetNodeCount(right, static_cast<uint16_t>(rn));
    up_key = promote;
    up_child = right->page_id();
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(right->page_id(), true));
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, true));
  }

  // Root split.
  if (up_child != kInvalidPageId) {
    PBITREE_ASSIGN_OR_RETURN(Page * new_root, bm->NewPage());
    SetNodeLeaf(new_root, false);
    SetNodeCount(new_root, 1);
    SetInteriorChild0(new_root, root_);
    InteriorWrite(new_root, 0, up_key, up_child);
    root_ = new_root->page_id();
    ++num_pages_;
    ++height_;
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(new_root->page_id(), true));
  }
  return Status::OK();
}

Status BPTree::Remove(BufferManager* bm, const ElementRecord& rec) {
  const uint64_t key = KeyOf(rec, kind_);
  // Walk from the first occurrence of `key` across the leaf chain
  // (duplicates may span leaves) until the exact record is found.
  PBITREE_ASSIGN_OR_RETURN(Page * leaf, DescendToLeaf(bm, key));
  size_t pos = LeafLowerBound(leaf, key);
  while (true) {
    if (pos < NodeCount(leaf)) {
      if (LeafKey(leaf, pos) > key) break;
      ElementRecord cur;
      LeafRead(leaf, pos, &cur);
      if (cur == rec) {
        uint16_t n = NodeCount(leaf);
        std::memmove(LeafEntry(leaf, pos), LeafEntry(leaf, pos + 1),
                     (n - pos - 1) * kLeafEntrySize);
        SetNodeCount(leaf, n - 1);
        --num_entries_;
        return bm->UnpinPage(leaf->page_id(), /*dirty=*/true);
      }
      ++pos;
      continue;
    }
    PageId next = LeafNext(leaf);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), false));
    if (next == kInvalidPageId) {
      return Status::NotFound("record not in index");
    }
    PBITREE_ASSIGN_OR_RETURN(leaf, bm->FetchPage(next));
    pos = 0;
  }
  PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), false));
  return Status::NotFound("record not in index");
}

Status BPTree::Drop(BufferManager* bm) {
  if (root_ == kInvalidPageId) return Status::OK();
  // Iterative post-order free via an explicit stack of page ids.
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId pid = stack.back();
    stack.pop_back();
    {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
      if (!NodeIsLeaf(p)) {
        stack.push_back(InteriorChild0(p));
        for (size_t i = 0; i < NodeCount(p); ++i) {
          stack.push_back(InteriorChild(p, i));
        }
      }
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
    }
    PBITREE_RETURN_IF_ERROR(bm->DeletePage(pid));
  }
  root_ = kInvalidPageId;
  num_entries_ = 0;
  num_pages_ = 0;
  height_ = 1;
  return Status::OK();
}

Result<bool> BPTree::SeekCeil(BufferManager* bm, uint64_t key,
                              ElementRecord* out) const {
  PBITREE_ASSIGN_OR_RETURN(Page * leaf, DescendToLeaf(bm, key));
  size_t pos = LeafLowerBound(leaf, key);
  while (true) {
    if (pos < NodeCount(leaf)) {
      LeafRead(leaf, pos, out);
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), false));
      return true;
    }
    PageId next = LeafNext(leaf);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), false));
    if (next == kInvalidPageId) return false;
    PBITREE_ASSIGN_OR_RETURN(leaf, bm->FetchPage(next));
    pos = 0;
  }
}

BPTree::RangeScanner::RangeScanner(BufferManager* bm, const BPTree& tree,
                                   uint64_t lo, uint64_t hi)
    : bm_(bm), hi_(hi), lo_(lo), tree_(&tree) {}

bool BPTree::RangeScanner::Fail(Status s, Status* status) {
  status_ = std::move(s);
  if (status != nullptr) *status = status_;
  Close();
  return false;
}

bool BPTree::RangeScanner::Next(ElementRecord* out, Status* status) {
  if (!status_.ok()) {
    // Dead scan: keep reporting the latched error, never resume.
    if (status != nullptr) *status = status_;
    return false;
  }
  if (status != nullptr) *status = Status::OK();
  if (!primed_) {
    primed_ = true;
    auto res = tree_->DescendToLeaf(bm_, lo_);
    if (!res.ok()) return Fail(res.status(), status);
    leaf_ = res.value();
    index_ = LeafLowerBound(leaf_, lo_);
  }
  while (leaf_ != nullptr) {
    if (index_ < NodeCount(leaf_)) {
      if (LeafKey(leaf_, index_) > hi_) {
        Close();
        return false;
      }
      LeafRead(leaf_, index_, out);
      ++index_;
      return true;
    }
    PageId next = LeafNext(leaf_);
    Status un = bm_->UnpinPage(leaf_->page_id(), false);
    leaf_ = nullptr;
    if (!un.ok()) return Fail(std::move(un), status);
    if (next == kInvalidPageId) {
      Close();
      return false;
    }
    auto res = bm_->FetchPage(next);
    if (!res.ok()) return Fail(res.status(), status);
    leaf_ = res.value();
    index_ = 0;
  }
  return false;
}

void BPTree::RangeScanner::Close() {
  if (leaf_ != nullptr) {
    bm_->UnpinPage(leaf_->page_id(), false);
    leaf_ = nullptr;
  }
}

}  // namespace pbitree
