#include "index/bptree.h"

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

StatusOr<BPTree> BPTree::BulkLoad(BufferManager* bm,
                                  SortedStream* sorted_input, KeyKind kind) {
  BPTree t;
  t.kind_ = kind;
  // Every page allocated so far, and the leaf being filled (pinned):
  // a failed load unpins the leaf and frees the partial tree.
  std::vector<PageId> pages;
  Page* leaf = nullptr;
  auto new_node = [&](bool is_leaf) -> StatusOr<Page*> {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
    pages.push_back(p->page_id());
    SetNodeLeaf(p, is_leaf);
    SetNodeCount(p, 0);
    if (is_leaf) SetLeafNext(p, kInvalidPageId);
    return p;
  };
  Status st = [&]() -> Status {
    struct LevelEntry {
      uint64_t first_key;
      PageId pid;
    };
    std::vector<LevelEntry> level;  // (first key, page) of each leaf

    // ---- Leaf level, packed full.
    uint64_t prev_key = 0;
    bool have_prev = false;
    for (; sorted_input->live(); sorted_input->Advance()) {
      const ElementRecord& rec = sorted_input->rec();
      uint64_t key = KeyOf(rec, kind);
      if (have_prev && key < prev_key) {
        return Status::InvalidArgument("BulkLoad: input not sorted by key");
      }
      prev_key = key;
      have_prev = true;
      if (leaf == nullptr || NodeCount(leaf) >= kLeafCapacity) {
        PBITREE_ASSIGN_OR_RETURN(Page * next, new_node(/*is_leaf=*/true));
        Status un = Status::OK();
        if (leaf != nullptr) {
          SetLeafNext(leaf, next->page_id());
          un = bm->UnpinPage(leaf->page_id(), true);
        }
        leaf = next;
        PBITREE_RETURN_IF_ERROR(un);
      }
      uint16_t n = NodeCount(leaf);
      if (n == 0) level.push_back({key, leaf->page_id()});
      LeafWrite(leaf, n, key, rec);
      SetNodeCount(leaf, n + 1);
      ++t.num_entries_;
    }
    PBITREE_RETURN_IF_ERROR(sorted_input->status());
    if (leaf == nullptr) {
      // Empty input: the tree is one empty leaf.
      PBITREE_ASSIGN_OR_RETURN(leaf, new_node(/*is_leaf=*/true));
      level.push_back({0, leaf->page_id()});
    }
    Status un = bm->UnpinPage(leaf->page_id(), true);
    leaf = nullptr;
    PBITREE_RETURN_IF_ERROR(un);

    // ---- Build interior levels bottom-up.
    while (level.size() > 1) {
      std::vector<LevelEntry> parent;
      size_t i = 0;
      while (i < level.size()) {
        PBITREE_ASSIGN_OR_RETURN(Page * node, new_node(/*is_leaf=*/false));
        parent.push_back({level[i].first_key, node->page_id()});
        SetInteriorChild0(node, level[i].pid);
        ++i;
        uint16_t n = 0;
        while (i < level.size() && n < kInteriorCapacity) {
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
    return Status::OK();
  }();
  if (!st.ok()) {
    if (leaf != nullptr) (void)bm->UnpinPage(leaf->page_id(), true);
    for (PageId pid : pages) (void)bm->DeletePage(pid);
    return st;
  }
  t.pages_ = std::move(pages);
  return t;
}

StatusOr<Page*> BPTree::DescendToLeaf(BufferManager* bm, uint64_t key) const {
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(root_));
  while (!NodeIsLeaf(p)) {
    PageId child = ChildForLowerBound(p, key);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), false));
    PBITREE_ASSIGN_OR_RETURN(p, bm->FetchPage(child));
  }
  return p;
}

Status BPTree::Drop(BufferManager* bm) {
  // Frees the pages recorded by BulkLoad without reading any of them,
  // so a drop on an error path needs no frame and no write-back.
  PBITREE_RETURN_IF_ERROR(bm->DeletePages(&pages_));
  root_ = kInvalidPageId;
  num_entries_ = 0;
  height_ = 1;
  return Status::OK();
}

StatusOr<bool> BPTree::SeekCeil(BufferManager* bm, uint64_t key,
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
