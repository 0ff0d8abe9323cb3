#include "join/element_set.h"

#include <algorithm>
#include <bit>
#include <string>

#include "storage/factory.h"

namespace pbitree {

int ElementSet::NumHeights() const { return std::popcount(height_mask); }

int ElementSet::MinHeight() const { return std::countr_zero(height_mask); }

int ElementSet::MaxHeight() const {
  return 63 - std::countl_zero(height_mask);
}

std::vector<int> ElementSet::Heights() const {
  std::vector<int> hs;
  for (int h = 0; h < 64; ++h) {
    if (height_mask & (uint64_t{1} << h)) hs.push_back(h);
  }
  return hs;
}

StatusOr<ElementSetBuilder> ElementSetBuilder::Create(
    BufferManager* bm, PBiTreeSpec spec, std::optional<PageCodecKind> codec) {
  PBITREE_RETURN_IF_ERROR(ValidateSpec(spec));
  ElementSetBuilder b;
  b.set_.spec = spec;
  PBITREE_ASSIGN_OR_RETURN(
      ScratchFile file,
      ScratchFile::Create(bm, codec.value_or(AmbientPageCodec())));
  b.file_ = std::make_unique<ScratchFile>(std::move(file));
  b.app_ = std::make_unique<HeapFile::Appender>(bm, b.file_->get());
  return b;
}

Status ElementSetBuilder::Add(const ElementRecord& rec) {
  if (!IsValidCode(rec.code, set_.spec)) {
    return Status::InvalidArgument("element code " + std::to_string(rec.code) +
                                   " invalid for PBiTree of height " +
                                   std::to_string(set_.spec.height));
  }
  set_.height_mask |= uint64_t{1} << HeightOf(rec.code);
  set_.min_start = std::min(set_.min_start, StartOf(rec.code));
  set_.max_end = std::max(set_.max_end, EndOf(rec.code));
  return app_->AppendElement(rec);
}

StatusOr<ElementSet> ElementSetBuilder::Build() {
  PBITREE_RETURN_IF_ERROR(app_->Finish());
  // A copy of the handle, then the owner lets go. Handing out the
  // builder's own, grown page directory instead raised paper_direct's
  // peak RSS by 9 MB: malloc's dynamic mmap threshold reacts to the
  // changed sequence of large frees.
  set_.file = **file_;
  file_->Release();
  return set_;
}

StatusOr<ElementSet> ExtractTagSet(BufferManager* bm, const DataTree& tree,
                                 PBiTreeSpec spec, TagId tag, uint32_t doc,
                                 std::optional<PageCodecKind> codec) {
  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(bm, spec, codec));
  for (size_t i = 0; i < tree.size(); ++i) {
    const auto& node = tree.node(static_cast<NodeId>(i));
    if (node.tag != tag) continue;
    if (node.code == kInvalidCode) {
      return Status::InvalidArgument(
          "tree not binarized: node without PBiTree code");
    }
    PBITREE_RETURN_IF_ERROR(builder.AddCode(node.code, tag, doc));
  }
  return builder.Build();
}

StatusOr<ElementSet> ExtractTagSetByName(BufferManager* bm, const DataTree& tree,
                                       PBiTreeSpec spec,
                                       std::string_view tag_name,
                                       uint32_t doc,
                                       std::optional<PageCodecKind> codec) {
  TagId tag;
  if (!tree.FindTag(tag_name, &tag)) {
    return Status::NotFound("tag '" + std::string(tag_name) +
                            "' does not occur in the document");
  }
  return ExtractTagSet(bm, tree, spec, tag, doc, codec);
}

}  // namespace pbitree
