#include "index/interval_index.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace pbitree {

namespace {

bool NodeIsLeaf(const Page* p) { return p->data()[0] == 1; }
void SetNodeLeaf(Page* p, bool leaf) { p->data()[0] = leaf ? 1 : 0; }
uint16_t NodeCount(const Page* p) {
  uint16_t v;
  std::memcpy(&v, p->data() + 2, 2);
  return v;
}
void SetNodeCount(Page* p, uint16_t v) { std::memcpy(p->data() + 2, &v, 2); }

constexpr size_t kLeafEntrySize = 16;
void LeafRead(const Page* p, size_t i, ElementRecord* rec) {
  std::memcpy(rec, p->data() + 8 + i * kLeafEntrySize, sizeof(ElementRecord));
}
void LeafWrite(Page* p, size_t i, const ElementRecord& rec) {
  std::memcpy(p->data() + 8 + i * kLeafEntrySize, &rec, sizeof(ElementRecord));
}

constexpr size_t kInteriorEntrySize = 20;
struct InteriorEntry {
  uint64_t min_start;
  uint64_t max_end;
  PageId child;
};
InteriorEntry ReadInterior(const Page* p, size_t i) {
  InteriorEntry e;
  const char* at = p->data() + 8 + i * kInteriorEntrySize;
  std::memcpy(&e.min_start, at, 8);
  std::memcpy(&e.max_end, at + 8, 8);
  std::memcpy(&e.child, at + 16, 4);
  return e;
}
void WriteInterior(Page* p, size_t i, const InteriorEntry& e) {
  char* at = p->data() + 8 + i * kInteriorEntrySize;
  std::memcpy(at, &e.min_start, 8);
  std::memcpy(at + 8, &e.max_end, 8);
  std::memcpy(at + 16, &e.child, 4);
}

}  // namespace

Result<IntervalIndex> IntervalIndex::BulkLoad(BufferManager* bm,
                                              const HeapFile& sorted_by_start) {
  IntervalIndex idx;

  struct LevelEntry {
    uint64_t min_start;
    uint64_t max_end;
    PageId pid;
  };
  std::vector<LevelEntry> level;

  // ---- Leaf level.
  HeapFile::Scanner scan(bm, sorted_by_start);
  ElementRecord rec;
  Status st;
  Page* leaf = nullptr;
  uint64_t leaf_min = 0, leaf_max = 0;
  uint64_t prev_start = 0;
  bool have_prev = false;
  auto close_leaf = [&]() -> Status {
    if (leaf == nullptr) return Status::OK();
    level.push_back({leaf_min, leaf_max, leaf->page_id()});
    Status s = bm->UnpinPage(leaf->page_id(), true);
    leaf = nullptr;
    return s;
  };
  while (scan.NextElement(&rec, &st)) {
    uint64_t start = StartOf(rec.code);
    uint64_t end = EndOf(rec.code);
    if (have_prev && start < prev_start) {
      if (leaf != nullptr) bm->UnpinPage(leaf->page_id(), true);
      return Status::InvalidArgument(
          "IntervalIndex::BulkLoad: input not sorted by Start");
    }
    prev_start = start;
    have_prev = true;
    if (leaf != nullptr && NodeCount(leaf) >= kLeafCapacity) {
      PBITREE_RETURN_IF_ERROR(close_leaf());
    }
    if (leaf == nullptr) {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
      SetNodeLeaf(p, true);
      SetNodeCount(p, 0);
      leaf = p;
      ++idx.num_pages_;
      leaf_min = start;
      leaf_max = end;
    }
    uint16_t n = NodeCount(leaf);
    LeafWrite(leaf, n, rec);
    SetNodeCount(leaf, n + 1);
    leaf_max = std::max(leaf_max, end);
    ++idx.num_entries_;
  }
  PBITREE_RETURN_IF_ERROR(st);
  PBITREE_RETURN_IF_ERROR(close_leaf());

  if (level.empty()) {
    // Empty index: a single empty leaf.
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
    SetNodeLeaf(p, true);
    SetNodeCount(p, 0);
    idx.root_ = p->page_id();
    idx.num_pages_ = 1;
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), true));
    return idx;
  }

  // ---- Interior levels.
  idx.height_ = 1;
  while (level.size() > 1) {
    std::vector<LevelEntry> parent;
    size_t i = 0;
    while (i < level.size()) {
      PBITREE_ASSIGN_OR_RETURN(Page * node, bm->NewPage());
      SetNodeLeaf(node, false);
      ++idx.num_pages_;
      uint16_t n = 0;
      uint64_t min_start = level[i].min_start;
      uint64_t max_end = 0;
      while (i < level.size() && n < kInteriorCapacity) {
        WriteInterior(node, n,
                      {level[i].min_start, level[i].max_end, level[i].pid});
        max_end = std::max(max_end, level[i].max_end);
        ++n;
        ++i;
      }
      SetNodeCount(node, n);
      parent.push_back({min_start, max_end, node->page_id()});
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(node->page_id(), true));
    }
    level = std::move(parent);
    ++idx.height_;
  }
  idx.root_ = level[0].pid;
  return idx;
}

Status IntervalIndex::Stab(
    BufferManager* bm, uint64_t q,
    const std::function<void(const ElementRecord&)>& emit) const {
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId pid = stack.back();
    stack.pop_back();
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
    uint16_t n = NodeCount(p);
    if (NodeIsLeaf(p)) {
      for (size_t i = 0; i < n; ++i) {
        ElementRecord rec;
        LeafRead(p, i, &rec);
        uint64_t start = StartOf(rec.code);
        if (start > q) break;  // leaf is Start-ascending
        if (EndOf(rec.code) >= q) emit(rec);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        InteriorEntry e = ReadInterior(p, i);
        if (e.min_start > q) break;  // later children start even further right
        if (e.max_end >= q) stack.push_back(e.child);
      }
    }
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
  }
  return Status::OK();
}

Status IntervalIndex::Drop(BufferManager* bm) {
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId pid = stack.back();
    stack.pop_back();
    {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
      if (!NodeIsLeaf(p)) {
        for (size_t i = 0; i < NodeCount(p); ++i) {
          stack.push_back(ReadInterior(p, i).child);
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

}  // namespace pbitree
