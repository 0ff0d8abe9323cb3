#include "query/twig_query.h"

#include "query/path_query.h"
#include "sort/external_sort.h"

namespace pbitree {

namespace {

/// Recursive-descent parser for `("//" name ("[" pattern "]")*)+`.
class TwigParser {
 public:
  explicit TwigParser(std::string_view text) : text_(text) {}

  StatusOr<TwigQuery> Parse() {
    PBITREE_ASSIGN_OR_RETURN(TwigQuery q, ParsePattern());
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing input at offset " +
                                     std::to_string(pos_));
    }
    return q;
  }

 private:
  StatusOr<TwigQuery> ParsePattern() {
    TwigQuery q;
    while (pos_ < text_.size() && text_[pos_] == '/') {
      if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '/') {
        return Status::NotSupported(
            "only the descendant axis '//' is supported");
      }
      pos_ += 2;
      TwigStep step;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '/' &&
             text_[pos_] != '[' && text_[pos_] != ']') {
        if (text_[pos_] == '@') {
          return Status::NotSupported("attribute tests are not supported");
        }
        ++pos_;
      }
      if (pos_ == start) {
        return Status::InvalidArgument("empty step name at offset " +
                                       std::to_string(start));
      }
      step.tag.assign(text_.substr(start, pos_ - start));
      while (pos_ < text_.size() && text_[pos_] == '[') {
        ++pos_;
        PBITREE_ASSIGN_OR_RETURN(TwigQuery pred, ParsePattern());
        if (pred.steps.empty()) {
          return Status::InvalidArgument("empty predicate at offset " +
                                         std::to_string(pos_));
        }
        if (pos_ >= text_.size() || text_[pos_] != ']') {
          return Status::InvalidArgument("unclosed predicate at offset " +
                                         std::to_string(pos_));
        }
        ++pos_;
        step.predicates.push_back(std::move(pred));
      }
      q.steps.push_back(std::move(step));
    }
    if (q.steps.empty() && pos_ < text_.size()) {
      return Status::InvalidArgument("expected '//' at offset " +
                                     std::to_string(pos_));
    }
    return q;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Forward declaration: match set of a full (sub-)pattern.
StatusOr<ElementSet> MatchSet(BufferManager* bm,
                              const ElementSetProvider& provider,
                              const PBiTreeSpec& spec, const TwigQuery& query,
                              const RunOptions& options,
                              TwigQueryStats* stats);

/// Elements of `candidates` that have at least one descendant in
/// `needles` — a containment join kept as a semijoin. Drops neither
/// input; the result is a new set.
StatusOr<ElementSet> SemijoinHavingDescendant(BufferManager* bm,
                                              const ElementSet& candidates,
                                              const ElementSet& needles,
                                              const RunOptions& options,
                                              TwigQueryStats* stats) {
  PBITREE_ASSIGN_OR_RETURN(HeapFile pairs, HeapFile::Create(bm));
  Status join_status;
  {
    MaterializeSink sink(bm, &pairs);
    auto run = RunAuto(bm, candidates, needles, &sink, options);
    Status fin = sink.Finish();
    join_status = run.ok() ? fin : run.status();
    if (run.ok() && stats != nullptr) ++stats->joins;
  }
  if (!join_status.ok()) {
    pairs.Drop(bm);
    return join_status;
  }
  auto filtered =
      DistinctAncestors(bm, pairs, candidates.spec, options.work_pages);
  Status drop = pairs.Drop(bm);
  if (!filtered.ok()) return filtered.status();
  PBITREE_RETURN_IF_ERROR(drop);
  if (stats != nullptr) ++stats->semijoins;
  return filtered;
}

/// Applies a step's predicates to `set` (consuming it), returning the
/// filtered set.
StatusOr<ElementSet> ApplyPredicates(BufferManager* bm,
                                     const ElementSetProvider& provider,
                                     const PBiTreeSpec& spec,
                                     const TwigStep& step, ElementSet set,
                                     const RunOptions& options,
                                     TwigQueryStats* stats) {
  for (const TwigQuery& pred : step.predicates) {
    auto needles = MatchSet(bm, provider, spec, pred, options, stats);
    if (!needles.ok()) {
      set.file.Drop(bm);
      return needles.status();
    }
    auto filtered = SemijoinHavingDescendant(bm, set, *needles, options, stats);
    needles->file.Drop(bm);
    set.file.Drop(bm);
    if (!filtered.ok()) return filtered.status();
    set = *filtered;
    if (set.num_records() == 0) break;  // nothing can match further
  }
  return set;
}

StatusOr<ElementSet> MatchSet(BufferManager* bm,
                              const ElementSetProvider& provider,
                              const PBiTreeSpec& spec, const TwigQuery& query,
                              const RunOptions& options,
                              TwigQueryStats* stats) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty twig pattern");
  }
  // Evaluate the spine back to front: the match set of step i is its
  // predicate-filtered tag set semijoined with the match set of step
  // i+1 (it must contain a matching descendant chain). The spine's
  // LAST step's matches under the filtered ancestors are the answer,
  // so the forward pass below re-derives descendants; here we only
  // need the first step's filtered set for recursion — build both.
  //
  // Implementation: compute filtered tag sets per step, then fold from
  // the back with semijoins to get M(step0); finally walk forward with
  // joins keeping distinct descendants to get the answer set of the
  // last step.
  std::vector<ElementSet> filtered(query.steps.size());
  for (size_t i = 0; i < query.steps.size(); ++i) {
    auto tag_set = provider(query.steps[i].tag);
    if (!tag_set.ok()) {
      for (size_t j = 0; j < i; ++j) filtered[j].file.Drop(bm);
      return tag_set.status();
    }
    auto f = ApplyPredicates(bm, provider, spec, query.steps[i], *tag_set,
                             options, stats);
    if (!f.ok()) {
      for (size_t j = 0; j < i; ++j) filtered[j].file.Drop(bm);
      return f.status();
    }
    filtered[i] = *f;
  }

  // Backward semijoin pass: step i must have a descendant matching the
  // rest of the spine.
  for (size_t i = query.steps.size() - 1; i-- > 0;) {
    auto narrowed = SemijoinHavingDescendant(bm, filtered[i], filtered[i + 1],
                                             options, stats);
    Status drop = filtered[i].file.Drop(bm);
    if (!narrowed.ok()) {
      for (size_t j = 0; j <= i; ++j) {
        if (j < i) filtered[j].file.Drop(bm);
      }
      for (size_t j = i + 1; j < filtered.size(); ++j) {
        filtered[j].file.Drop(bm);
      }
      return narrowed.status();
    }
    PBITREE_RETURN_IF_ERROR(drop);
    filtered[i] = *narrowed;
  }

  // Forward pass: distinct descendants under the narrowed ancestors.
  ElementSet current = filtered[0];
  for (size_t i = 1; i < query.steps.size(); ++i) {
    PBITREE_ASSIGN_OR_RETURN(HeapFile pairs, HeapFile::Create(bm));
    Status join_status;
    {
      MaterializeSink sink(bm, &pairs);
      auto run = RunAuto(bm, current, filtered[i], &sink, options);
      Status fin = sink.Finish();
      join_status = run.ok() ? fin : run.status();
      if (run.ok() && stats != nullptr) ++stats->joins;
    }
    current.file.Drop(bm);
    filtered[i].file.Drop(bm);
    if (!join_status.ok()) {
      for (size_t j = i + 1; j < filtered.size(); ++j) {
        filtered[j].file.Drop(bm);
      }
      pairs.Drop(bm);
      return join_status;
    }
    auto next = DistinctDescendants(bm, pairs, spec, options.work_pages);
    Status drop = pairs.Drop(bm);
    if (!next.ok()) return next.status();
    PBITREE_RETURN_IF_ERROR(drop);
    current = *next;
  }
  return current;
}

}  // namespace

StatusOr<TwigQuery> ParseTwigQuery(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty twig pattern");
  TwigParser parser(text);
  PBITREE_ASSIGN_OR_RETURN(TwigQuery q, parser.Parse());
  if (q.steps.empty()) return Status::InvalidArgument("empty twig pattern");
  return q;
}

StatusOr<ElementSet> DistinctAncestors(BufferManager* bm,
                                       const HeapFile& pair_file,
                                       PBiTreeSpec spec, size_t work_pages) {
  PBITREE_ASSIGN_OR_RETURN(HeapFile column, HeapFile::Create(bm));
  {
    HeapFile::Appender app(bm, &column);
    HeapFile::Scanner scan(bm, pair_file);
    for (auto batch = scan.NextPairBatch(); !batch.empty();
         batch = scan.NextPairBatch()) {
      for (const ResultPair& pair : batch) {
        PBITREE_RETURN_IF_ERROR(
            app.AppendElement(ElementRecord{pair.ancestor_code, 0, 0}));
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
    PBITREE_RETURN_IF_ERROR(app.Finish());
  }
  auto sorted = ExternalSort(bm, column, work_pages, SortOrder::kCodeOrder);
  PBITREE_RETURN_IF_ERROR(column.Drop(bm));
  if (!sorted.ok()) return sorted.status();

  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(bm, spec));
  {
    HeapFile::Scanner scan(bm, *sorted);
    Code last = kInvalidCode;
    for (auto batch = scan.NextElementBatch(); !batch.empty();
         batch = scan.NextElementBatch()) {
      for (const ElementRecord& rec : batch) {
        if (rec.code != last) {
          PBITREE_RETURN_IF_ERROR(builder.Add(rec));
          last = rec.code;
        }
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
  }
  PBITREE_RETURN_IF_ERROR(sorted->Drop(bm));
  return builder.Build();
}

StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats) {
  ElementSetProvider provider = [bm, &tree, &spec](const std::string& tag) {
    return ExtractTagSetByName(bm, tree, spec, tag);
  };
  return EvaluateTwigQuery(bm, provider, spec, query, options, stats);
}

StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm,
                                       const ElementSetProvider& provider,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats) {
  PBITREE_ASSIGN_OR_RETURN(
      ElementSet result,
      MatchSet(bm, provider, spec, query, options, stats));
  if (stats != nullptr) stats->final_count = result.num_records();
  return result;
}

}  // namespace pbitree
