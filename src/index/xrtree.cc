#include "index/xrtree.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace pbitree {

namespace {

// ---- Leaf pages: tag, count, next-leaf, ElementRecords by Start.
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

constexpr size_t kLeafEntrySize = 16;
void LeafRead(const Page* p, size_t i, ElementRecord* rec) {
  std::memcpy(rec, p->data() + 8 + i * kLeafEntrySize, sizeof(ElementRecord));
}
void LeafWrite(Page* p, size_t i, const ElementRecord& rec) {
  std::memcpy(p->data() + 8 + i * kLeafEntrySize, &rec, sizeof(ElementRecord));
}
uint64_t LeafKey(const Page* p, size_t i) {
  ElementRecord rec;
  LeafRead(p, i, &rec);
  return StartOf(rec.code);
}

// ---- Internal pages: tag, count, stab-chain head, child0, then
// (key, child) routers.
PageId StabHead(const Page* p) {
  PageId v;
  std::memcpy(&v, p->data() + 4, 4);
  return v;
}
void SetStabHead(Page* p, PageId v) { std::memcpy(p->data() + 4, &v, 4); }
PageId InteriorChild0(const Page* p) {
  PageId v;
  std::memcpy(&v, p->data() + 8, 4);
  return v;
}
void SetInteriorChild0(Page* p, PageId v) { std::memcpy(p->data() + 8, &v, 4); }

constexpr size_t kRouterSize = 12;
uint64_t RouterKey(const Page* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, p->data() + 12 + i * kRouterSize, 8);
  return k;
}
PageId RouterChild(const Page* p, size_t i) {
  PageId v;
  std::memcpy(&v, p->data() + 12 + i * kRouterSize + 8, 4);
  return v;
}
void WriteRouter(Page* p, size_t i, uint64_t key, PageId child) {
  std::memcpy(p->data() + 12 + i * kRouterSize, &key, 8);
  std::memcpy(p->data() + 12 + i * kRouterSize + 8, &child, 4);
}

/// Search child for the first occurrence of `key` (strict comparison,
/// duplicate-safe — see BPTree::ChildForLowerBound).
PageId ChildForLowerBound(const Page* p, uint64_t key) {
  size_t lo = 0, hi = NodeCount(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (RouterKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? InteriorChild0(p) : RouterChild(p, lo - 1);
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

// ---- Stab-list chain pages: next pid, count, ElementRecords.
constexpr size_t kStabPerPage = (kPageSize - 8) / 16;
PageId StabNext(const Page* p) {
  PageId v;
  std::memcpy(&v, p->data(), 4);
  return v;
}
void SetStabNext(Page* p, PageId v) { std::memcpy(p->data(), &v, 4); }
uint16_t StabCount(const Page* p) {
  uint16_t v;
  std::memcpy(&v, p->data() + 4, 2);
  return v;
}
void SetStabCount(Page* p, uint16_t v) { std::memcpy(p->data() + 4, &v, 2); }
void StabRead(const Page* p, size_t i, ElementRecord* rec) {
  std::memcpy(rec, p->data() + 8 + i * 16, 16);
}
void StabWrite(Page* p, size_t i, const ElementRecord& rec) {
  std::memcpy(p->data() + 8 + i * 16, &rec, 16);
}

}  // namespace

StatusOr<XRTree> XRTree::BulkLoad(BufferManager* bm,
                                  const HeapFile& sorted_by_start) {
  XRTree t;

  // ---- Load and validate the input.
  std::vector<ElementRecord> recs;
  recs.reserve(sorted_by_start.num_records());
  {
    HeapFile::Scanner scan(bm, sorted_by_start);
    ElementRecord rec;
    Status st;
    uint64_t prev = 0;
    while (scan.NextElement(&rec, &st)) {
      uint64_t s = StartOf(rec.code);
      if (!recs.empty() && s < prev) {
        return Status::InvalidArgument(
            "XRTree::BulkLoad: input not sorted by Start");
      }
      prev = s;
      recs.push_back(rec);
    }
    PBITREE_RETURN_IF_ERROR(st);
  }
  t.num_entries_ = recs.size();

  // ---- Leaf level.
  struct LevelEntry {
    uint64_t first_key;
    PageId pid;
  };
  std::vector<LevelEntry> level;
  {
    Page* leaf = nullptr;
    for (size_t i = 0; i < recs.size(); ++i) {
      if (leaf != nullptr && NodeCount(leaf) >= kLeafCapacity) {
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
      if (n == 0) level.push_back({StartOf(recs[i].code), leaf->page_id()});
      LeafWrite(leaf, n, recs[i]);
      SetNodeCount(leaf, n + 1);
    }
    if (leaf != nullptr) {
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(leaf->page_id(), true));
    }
  }
  if (level.empty()) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
    SetNodeLeaf(p, true);
    SetNodeCount(p, 0);
    SetLeafNext(p, kInvalidPageId);
    t.root_ = p->page_id();
    t.num_pages_ = 1;
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), true));
    return t;
  }

  // ---- Internal levels (stab heads patched later).
  t.height_ = 1;
  while (level.size() > 1) {
    std::vector<LevelEntry> parent;
    size_t i = 0;
    while (i < level.size()) {
      PBITREE_ASSIGN_OR_RETURN(Page * node, bm->NewPage());
      SetNodeLeaf(node, false);
      SetStabHead(node, kInvalidPageId);
      ++t.num_pages_;
      parent.push_back({level[i].first_key, node->page_id()});
      SetInteriorChild0(node, level[i].pid);
      ++i;
      uint16_t n = 0;
      while (i < level.size() && n < kInteriorCapacity) {
        WriteRouter(node, n, level[i].first_key, level[i].pid);
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
  if (t.height_ == 1) return t;  // a single leaf: no stab lists at all

  // ---- Stab assignment: descend each element from the root; it is
  // assigned to the FIRST node (top-down) holding a router key inside
  // its region — which guarantees the node lies on the search path of
  // every point the region covers.
  std::unordered_map<PageId, std::vector<ElementRecord>> stabs;
  for (const ElementRecord& rec : recs) {
    uint64_t s = StartOf(rec.code), e = EndOf(rec.code);
    if (s == e) continue;  // leaves stab nothing
    PageId pid = t.root_;
    while (true) {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
      if (NodeIsLeaf(p)) {
        PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
        break;
      }
      // Any router key in [s, e]? Routers ascend: find first >= s.
      uint16_t n = NodeCount(p);
      size_t lo = 0, hi = n;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (RouterKey(p, mid) < s) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      bool stabbed = lo < n && RouterKey(p, lo) <= e;
      PageId next = ChildForLowerBound(p, s);
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
      if (stabbed) {
        stabs[pid].push_back(rec);
        ++t.num_stabbed_;
        break;
      }
      pid = next;
    }
  }

  // ---- Materialise stab chains (entries already in Start order since
  // the input was) and patch the node headers.
  for (auto& [node_pid, list] : stabs) {
    PageId head = kInvalidPageId;
    PageId prev = kInvalidPageId;
    for (size_t i = 0; i < list.size(); i += kStabPerPage) {
      size_t n = std::min(kStabPerPage, list.size() - i);
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->NewPage());
      SetStabNext(p, kInvalidPageId);
      SetStabCount(p, static_cast<uint16_t>(n));
      for (size_t j = 0; j < n; ++j) StabWrite(p, j, list[i + j]);
      ++t.num_pages_;
      if (head == kInvalidPageId) {
        head = p->page_id();
      } else {
        PBITREE_ASSIGN_OR_RETURN(Page * pp, bm->FetchPage(prev));
        SetStabNext(pp, p->page_id());
        PBITREE_RETURN_IF_ERROR(bm->UnpinPage(prev, true));
      }
      prev = p->page_id();
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), true));
    }
    PBITREE_ASSIGN_OR_RETURN(Page * node, bm->FetchPage(node_pid));
    SetStabHead(node, head);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(node_pid, true));
  }
  return t;
}

Status XRTree::StabPath(
    BufferManager* bm, uint64_t q,
    const std::function<void(const ElementRecord&)>& emit) const {
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<ElementRecord> hits;
  PageId pid = root_;
  while (true) {
    PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
    if (NodeIsLeaf(p)) {
      // Intervals that stab no router are confined to one leaf's key
      // range — the leaf q descends into. Scan its Start-<=-q prefix.
      uint16_t n = NodeCount(p);
      for (size_t i = 0; i < n; ++i) {
        ElementRecord rec;
        LeafRead(p, i, &rec);
        if (StartOf(rec.code) > q) break;
        if (EndOf(rec.code) >= q) hits.push_back(rec);
      }
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
      break;
    }
    PageId stab = StabHead(p);
    PageId next = ChildForLowerBound(p, q);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
    while (stab != kInvalidPageId) {
      PBITREE_ASSIGN_OR_RETURN(Page * sp, bm->FetchPage(stab));
      uint16_t n = StabCount(sp);
      bool past = false;
      for (size_t i = 0; i < n; ++i) {
        ElementRecord rec;
        StabRead(sp, i, &rec);
        uint64_t s = StartOf(rec.code);
        if (s > q) {
          past = true;  // Start-sorted: nothing further can cover q
          break;
        }
        if (EndOf(rec.code) >= q) hits.push_back(rec);
      }
      PageId nxt = StabNext(sp);
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(stab, false));
      stab = past ? kInvalidPageId : nxt;
    }
    pid = next;
  }
  // Document order: outermost (smallest Start, greatest height) first.
  // An element can surface twice (stab list + arrival leaf); dedup.
  std::sort(hits.begin(), hits.end(),
            [](const ElementRecord& a, const ElementRecord& b) {
              uint64_t sa = StartOf(a.code), sb = StartOf(b.code);
              if (sa != sb) return sa < sb;
              return HeightOf(a.code) > HeightOf(b.code);
            });
  hits.erase(std::unique(hits.begin(), hits.end(),
                         [](const ElementRecord& a, const ElementRecord& b) {
                           return a.code == b.code;
                         }),
             hits.end());
  for (const ElementRecord& rec : hits) emit(rec);
  return Status::OK();
}

StatusOr<Page*> XRTree::DescendToLeaf(BufferManager* bm, uint64_t key) const {
  PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(root_));
  while (!NodeIsLeaf(p)) {
    PageId child = ChildForLowerBound(p, key);
    PBITREE_RETURN_IF_ERROR(bm->UnpinPage(p->page_id(), false));
    PBITREE_ASSIGN_OR_RETURN(p, bm->FetchPage(child));
  }
  return p;
}

XRTree::Cursor::Cursor(BufferManager* bm, const XRTree& tree)
    : bm_(bm), tree_(&tree) {}

Status XRTree::Cursor::Advance() {
  if (leaf_ == nullptr) {
    live_ = false;
    return Status::OK();
  }
  while (true) {
    if (index_ < NodeCount(leaf_)) {
      LeafRead(leaf_, index_, &rec_);
      ++index_;
      live_ = true;
      return Status::OK();
    }
    PageId next = LeafNext(leaf_);
    PBITREE_RETURN_IF_ERROR(bm_->UnpinPage(leaf_->page_id(), false));
    leaf_ = nullptr;
    if (next == kInvalidPageId) {
      live_ = false;
      return Status::OK();
    }
    PBITREE_ASSIGN_OR_RETURN(leaf_, bm_->FetchPage(next));
    index_ = 0;
  }
}

Status XRTree::Cursor::SeekTo(uint64_t key) {
  Close();
  PBITREE_ASSIGN_OR_RETURN(leaf_, tree_->DescendToLeaf(bm_, key));
  index_ = LeafLowerBound(leaf_, key);
  return Advance();
}

void XRTree::Cursor::Close() {
  if (leaf_ != nullptr) {
    bm_->UnpinPage(leaf_->page_id(), false);
    leaf_ = nullptr;
  }
  live_ = false;
}

Status XRTree::Drop(BufferManager* bm) {
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId pid = stack.back();
    stack.pop_back();
    {
      PBITREE_ASSIGN_OR_RETURN(Page * p, bm->FetchPage(pid));
      if (!NodeIsLeaf(p)) {
        stack.push_back(InteriorChild0(p));
        for (size_t i = 0; i < NodeCount(p); ++i) {
          stack.push_back(RouterChild(p, i));
        }
        PageId stab = StabHead(p);
        while (stab != kInvalidPageId) {
          PBITREE_ASSIGN_OR_RETURN(Page * sp, bm->FetchPage(stab));
          PageId nxt = StabNext(sp);
          PBITREE_RETURN_IF_ERROR(bm->UnpinPage(stab, false));
          PBITREE_RETURN_IF_ERROR(bm->DeletePage(stab));
          stab = nxt;
        }
      }
      PBITREE_RETURN_IF_ERROR(bm->UnpinPage(pid, false));
    }
    PBITREE_RETURN_IF_ERROR(bm->DeletePage(pid));
  }
  root_ = kInvalidPageId;
  num_entries_ = 0;
  num_pages_ = 0;
  num_stabbed_ = 0;
  height_ = 1;
  return Status::OK();
}

}  // namespace pbitree
