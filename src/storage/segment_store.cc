#include "storage/segment_store.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "storage/element_store.h"
#include "storage/factory.h"

namespace pbitree {

namespace {

std::string SegmentPath(const std::string& path, size_t k) {
  return path + ".seg" + std::to_string(k);
}

}  // namespace

StatusOr<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const Options& opts) {
  auto make = opts.make_backend;
  if (!make) {
    const std::string kind = opts.backend;
    make = [kind](const std::string& path) {
      return MakeIoBackend(kind, path);
    };
  }
  const bool restore_frontier = IsFileBackend(opts.backend);

  auto store = std::unique_ptr<SegmentStore>(new SegmentStore());
  store->page_codec_ = opts.page_codec;
  PBITREE_ASSIGN_OR_RETURN(auto main_backend, make(opts.path));
  PBITREE_ASSIGN_OR_RETURN(
      DiskManager * main_disk,
      DiskManager::OpenWithBackend(std::move(main_backend),
                                   restore_frontier));
  store->main_.disk.reset(main_disk);
  // The main file may have been written by a mutable store whose last
  // commit only reached its log: replay it (raw disk, before the pool
  // below can cache a stale page). No-op on fresh or log-free files.
  PBITREE_RETURN_IF_ERROR(ElementSetStore::Recover(main_disk));
  store->main_.bm =
      std::make_unique<BufferManager>(main_disk, opts.pool_pages);
  PBITREE_ASSIGN_OR_RETURN(store->main_.catalog,
                           Catalog::Load(store->main_.bm.get()));

  int level = store->main_.catalog.segment_level();
  if (opts.create_level >= 0) {
    if (store->main_.catalog.size() != 0 && level != opts.create_level) {
      return Status::InvalidArgument(
          "database is segmented at level " + std::to_string(level) +
          "; cannot re-open at level " + std::to_string(opts.create_level));
    }
    level = opts.create_level;
    store->main_.catalog.set_segment_level(level);
  }
  if (level < 0 || level > kMaxSegmentLevel) {
    return Status::Corruption("segment level " + std::to_string(level) +
                              " out of range (max " +
                              std::to_string(kMaxSegmentLevel) + ")");
  }
  store->level_ = level;

  if (level > 0) {
    const size_t n = size_t{1} << level;
    const size_t seg_pool =
        std::max(kMinSegmentPoolPages, opts.pool_pages / n);
    store->segments_.resize(n);
    for (size_t k = 0; k < n; ++k) {
      PBITREE_ASSIGN_OR_RETURN(auto backend,
                               make(SegmentPath(opts.path, k)));
      PBITREE_ASSIGN_OR_RETURN(
          DiskManager * disk,
          DiskManager::OpenWithBackend(std::move(backend),
                                       restore_frontier));
      Piece& piece = store->segments_[k];
      piece.disk.reset(disk);
      piece.bm = std::make_unique<BufferManager>(disk, seg_pool);
      PBITREE_ASSIGN_OR_RETURN(piece.catalog, Catalog::Load(piece.bm.get()));
    }
  }
  return store;
}

BufferManager* SegmentStore::segment_bm(size_t k) { return piece(k)->bm.get(); }

Catalog* SegmentStore::segment_catalog(size_t k) { return &piece(k)->catalog; }

Status SegmentStore::StoreSet(const std::string& name, const ElementSet& src,
                              BufferManager* src_bm) {
  if (!src.file.valid()) {
    return Status::InvalidArgument("cannot store an invalid element set");
  }

  if (level_ == 0) {
    // Pre-sharding layout: one source-order copy into the main file.
    PBITREE_ASSIGN_OR_RETURN(
        ElementSetBuilder builder,
        ElementSetBuilder::Create(main_.bm.get(), src.spec, page_codec_));
    HeapFile::Scanner scan(src_bm, src.file);
    for (std::span<const ElementRecord> batch = scan.NextElementBatch();
         !batch.empty(); batch = scan.NextElementBatch()) {
      for (const ElementRecord& rec : batch) {
        PBITREE_RETURN_IF_ERROR(builder.Add(rec));
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
    ElementSet copy = builder.Build();
    copy.sorted_by_start = src.sorted_by_start;
    return main_.catalog.Put(name, copy);
  }

  const int h_cut = SegmentCutHeight(src.spec, level_);
  if (h_cut < 0) {
    return Status::InvalidArgument(
        "segment level " + std::to_string(level_) +
        " exceeds PBiTree height " + std::to_string(src.spec.height));
  }

  const size_t n = num_segments();
  std::vector<std::optional<ElementSetBuilder>> builders(n);
  std::vector<bool> has_foreign(n, false);
  auto builder_for = [&](size_t k) -> Status {
    if (!builders[k].has_value()) {
      PBITREE_ASSIGN_OR_RETURN(
          ElementSetBuilder b,
          ElementSetBuilder::Create(segments_[k].bm.get(), src.spec,
                                    page_codec_));
      builders[k].emplace(std::move(b));
    }
    return Status::OK();
  };

  // One source-order pass: each segment piece keeps the source's
  // relative record order, natives land in their designated segment,
  // above-cut elements replicate into every segment they span.
  HeapFile::Scanner scan(src_bm, src.file);
  for (std::span<const ElementRecord> batch = scan.NextElementBatch();
       !batch.empty(); batch = scan.NextElementBatch()) {
    for (const ElementRecord& rec : batch) {
      SegmentSpan span = SegmentSpanOf(rec.code, h_cut);
      if (span.hi >= n) {
        return Status::InvalidArgument(
            "element code " + std::to_string(rec.code) +
            " routes past the last segment");
      }
      for (uint64_t k = span.lo; k <= span.hi; ++k) {
        PBITREE_RETURN_IF_ERROR(builder_for(k));
        PBITREE_RETURN_IF_ERROR(builders[k]->Add(rec));
        if (k != span.lo) has_foreign[k] = true;
      }
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());

  uint64_t total_pages = 0;
  for (size_t k = 0; k < n; ++k) {
    if (!builders[k].has_value()) continue;
    ElementSet piece = builders[k]->Build();
    piece.sorted_by_start = src.sorted_by_start;
    total_pages += piece.num_pages();
    PBITREE_RETURN_IF_ERROR(segments_[k].catalog.Put(
        name, piece,
        has_foreign[k] ? Catalog::kFlagHasReplicas : 0u));
  }

  Catalog::SegmentedSetInfo info;
  info.num_records = src.num_records();
  info.num_pages = total_pages;
  info.tree_height = src.spec.height;
  info.sorted_by_start = src.sorted_by_start;
  info.height_mask = src.height_mask;
  info.min_start = src.min_start;
  info.max_end = src.max_end;
  return main_.catalog.PutMaster(name, info);
}

StatusOr<SegmentedSet> SegmentStore::Load(const std::string& name) {
  SegmentedSet out;
  out.level = level_;

  if (level_ == 0) {
    PBITREE_ASSIGN_OR_RETURN(ElementSet set,
                             main_.catalog.Get(main_.bm.get(), name));
    out.spec = set.spec;
    out.sorted_by_start = set.sorted_by_start;
    out.num_records = set.num_records();
    out.height_mask = set.height_mask;
    out.min_start = set.min_start;
    out.max_end = set.max_end;
    out.segments.push_back({set, main_.bm.get(), false});
    return out;
  }

  PBITREE_ASSIGN_OR_RETURN(Catalog::SegmentedSetInfo info,
                           main_.catalog.GetMaster(name));
  out.spec = PBiTreeSpec{info.tree_height};
  out.sorted_by_start = info.sorted_by_start;
  out.num_records = info.num_records;
  out.height_mask = info.height_mask;
  out.min_start = info.min_start;
  out.max_end = info.max_end;
  out.segments.resize(num_segments());
  for (size_t k = 0; k < num_segments(); ++k) {
    SegmentedSet::Segment& seg = out.segments[k];
    seg.bm = segments_[k].bm.get();
    if (!segments_[k].catalog.Contains(name)) {
      seg.set.spec = out.spec;  // empty piece: no records in this subtree
      continue;
    }
    PBITREE_ASSIGN_OR_RETURN(seg.set,
                             segments_[k].catalog.Get(seg.bm, name));
    PBITREE_ASSIGN_OR_RETURN(uint32_t flags,
                             segments_[k].catalog.EntryFlags(name));
    seg.has_replicas = (flags & Catalog::kFlagHasReplicas) != 0;
  }
  return out;
}

StatusOr<ElementSet> SegmentStore::LoadMerged(const std::string& name,
                                              BufferManager* dst_bm) {
  if (level_ == 0 && dst_bm == main_.bm.get()) {
    return main_.catalog.Get(main_.bm.get(), name);
  }
  PBITREE_ASSIGN_OR_RETURN(SegmentedSet seg, Load(name));
  const int h_cut = seg.cut_height();
  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(dst_bm, seg.spec));
  for (size_t k = 0; k < seg.segments.size(); ++k) {
    const SegmentedSet::Segment& piece = seg.segments[k];
    if (!piece.set.file.valid()) continue;
    HeapFile::Scanner scan(piece.bm, piece.set.file);
    for (std::span<const ElementRecord> batch = scan.NextElementBatch();
         !batch.empty(); batch = scan.NextElementBatch()) {
      for (const ElementRecord& rec : batch) {
        if (piece.has_replicas && HeightOf(rec.code) > h_cut &&
            DesignatedSegment(rec.code, h_cut) != k) {
          continue;  // replica: owned by its designated segment
        }
        PBITREE_RETURN_IF_ERROR(builder.Add(rec));
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
  }
  ElementSet out = builder.Build();
  out.sorted_by_start = seg.sorted_by_start;
  if (out.num_records() != seg.num_records) {
    return Status::Corruption(
        "segmented set '" + name + "' merged to " +
        std::to_string(out.num_records()) + " records, master entry says " +
        std::to_string(seg.num_records));
  }
  return out;
}

Status SegmentStore::SaveCatalogs() {
  for (size_t k = 0; k < segments_.size(); ++k) {
    PBITREE_RETURN_IF_ERROR(segments_[k].catalog.Save(segments_[k].bm.get()));
  }
  return main_.catalog.Save(main_.bm.get());
}

Status SegmentStore::FlushAndSync() {
  for (size_t k = 0; k < segments_.size(); ++k) {
    PBITREE_RETURN_IF_ERROR(segments_[k].bm->FlushAll());
    PBITREE_RETURN_IF_ERROR(segments_[k].disk->Sync());
  }
  PBITREE_RETURN_IF_ERROR(main_.bm->FlushAll());
  return main_.disk->Sync();
}

namespace {

Status SegmentedMutationUnimplemented(const std::string& name,
                                      const char* what) {
  return Status::Unimplemented(
      std::string("cannot ") + what + " '" + name +
      "' in a segmented store: live sharded mutation is not implemented "
      "(mutate an unsegmented database via ElementSetStore, or re-shard "
      "offline with StoreSet)");
}

}  // namespace

Status SegmentStore::InsertRecord(const std::string& name,
                                  const ElementRecord& rec) {
  (void)rec;
  return SegmentedMutationUnimplemented(name, "insert into set");
}

Status SegmentStore::DeleteRecord(const std::string& name, Code code) {
  (void)code;
  return SegmentedMutationUnimplemented(name, "delete from set");
}

}  // namespace pbitree
