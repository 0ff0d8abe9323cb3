#include "query/twig_query.h"

#include <utility>

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

/// The column of a containment join's pair file that a fold keeps.
enum class Keep { kAncestors, kDescendants };

/// Deduplicates one column of a join-result pair file into an element
/// set ordered by code (not document order). The pair file is not
/// dropped.
StatusOr<ElementSet> DistinctColumn(BufferManager* bm,
                                    const HeapFile& pair_file, Keep keep,
                                    PBiTreeSpec spec, size_t work_pages) {
  // Rewrite the column as element records, sort by code, then emit
  // each code once.
  PBITREE_ASSIGN_OR_RETURN(HeapFile column, HeapFile::Create(bm));
  {
    HeapFile::Appender app(bm, &column);
    HeapFile::Scanner scan(bm, pair_file);
    for (auto batch = scan.NextPairBatch(); !batch.empty();
         batch = scan.NextPairBatch()) {
      for (const ResultPair& pair : batch) {
        const Code code = keep == Keep::kAncestors ? pair.ancestor_code
                                                   : pair.descendant_code;
        PBITREE_RETURN_IF_ERROR(app.AppendElement(ElementRecord{code, 0, 0}));
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

/// A fresh copy of `set`, for a one-step answer that would otherwise be
/// the provider's own set.
StatusOr<ElementSet> CopySet(BufferManager* bm, const ElementSet& set) {
  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(bm, set.spec));
  HeapFile::Scanner scan(bm, set.file);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    for (const ElementRecord& rec : batch) {
      PBITREE_RETURN_IF_ERROR(builder.Add(rec));
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  PBITREE_ASSIGN_OR_RETURN(ElementSet copy, builder.Build());
  copy.sorted_by_start = set.sorted_by_start;
  return copy;
}

/// A fold operand: provider sets are borrowed, sets the evaluator built
/// are owned and dropped as soon as they are consumed.
struct Operand {
  ElementSet set;
  bool owned = false;
};

class Evaluator {
 public:
  Evaluator(BufferManager* bm, const ElementSetProvider& provider,
            const PBiTreeSpec& spec, const RunOptions& options)
      : bm_(bm), provider_(provider), spec_(spec), options_(options) {}

  /// Folds the spine of `q` into one set. Front to back (the answer),
  /// the current set joins the next step's set as ancestors and the
  /// distinct descendants go on. Back to front (a predicate's heads),
  /// the previous step's set joins the current set as ancestors and the
  /// distinct ancestors go on.
  StatusOr<Operand> Fold(const TwigQuery& q, bool forward) {
    const size_t n = q.steps.size();
    if (n == 0) return Status::InvalidArgument("empty twig pattern");
    auto step = [&](size_t k) -> const TwigStep& {
      return q.steps[forward ? k : n - 1 - k];
    };
    PBITREE_ASSIGN_OR_RETURN(Operand acc, StepSet(step(0)));
    for (size_t k = 1; k < n; ++k) {
      auto next = StepSet(step(k));
      if (!next.ok()) {
        Release(acc);
        return next.status();
      }
      PBITREE_ASSIGN_OR_RETURN(
          acc, forward ? JoinAndRelease(acc, *next, Keep::kDescendants)
                       : JoinAndRelease(*next, acc, Keep::kAncestors));
    }
    return acc;
  }

  TwigQueryStats& stats() { return stats_; }

 private:
  /// The elements of `step`'s tag that have a descendant among each
  /// predicate's heads.
  StatusOr<Operand> StepSet(const TwigStep& step) {
    PBITREE_ASSIGN_OR_RETURN(ElementSet tag_set, provider_(step.tag));
    Operand set{tag_set, /*owned=*/false};
    for (const TwigQuery& pred : step.predicates) {
      auto heads = Fold(pred, /*forward=*/false);
      if (!heads.ok()) {
        Release(set);
        return heads.status();
      }
      PBITREE_ASSIGN_OR_RETURN(set,
                               JoinAndRelease(set, *heads, Keep::kAncestors));
    }
    return set;
  }

  /// Joins `a` (ancestors) with `d` (descendants) and keeps the distinct
  /// `keep` column as a new owned set. Releases both inputs, also on
  /// failure.
  StatusOr<Operand> JoinAndRelease(Operand a, Operand d, Keep keep) {
    auto kept = JoinDistinct(a.set, d.set, keep);
    Status release_a = Release(a);
    Status release_d = Release(d);
    if (!kept.ok()) return kept.status();
    Status released = release_a.ok() ? release_d : release_a;
    if (!released.ok()) {
      kept->file.Drop(bm_);
      return released;
    }
    return Operand{*kept, /*owned=*/true};
  }

  StatusOr<ElementSet> JoinDistinct(const ElementSet& a, const ElementSet& d,
                                    Keep keep) {
    PBITREE_ASSIGN_OR_RETURN(HeapFile pairs, HeapFile::Create(bm_));
    Status join_status;
    {
      MaterializeSink sink(bm_, &pairs);
      auto run = RunAuto(bm_, a, d, &sink, options_);
      // A failed close means the pair file lost its tail page — as
      // fatal as the join itself failing.
      Status fin = sink.Finish();
      join_status = run.ok() ? fin : run.status();
      if (run.ok()) stats_.joins.push_back(*std::move(run));
    }
    StatusOr<ElementSet> kept =
        join_status.ok()
            ? DistinctColumn(bm_, pairs, keep, spec_, options_.work_pages)
            : StatusOr<ElementSet>(join_status);
    Status drop = pairs.Drop(bm_);
    if (!kept.ok()) return kept.status();
    if (!drop.ok()) {
      kept->file.Drop(bm_);
      return drop;
    }
    if (keep == Keep::kAncestors) ++stats_.semijoins;
    return kept;
  }

  Status Release(Operand& op) {
    return op.owned ? op.set.file.Drop(bm_) : Status::OK();
  }

  BufferManager* bm_;
  const ElementSetProvider& provider_;
  const PBiTreeSpec& spec_;
  const RunOptions& options_;
  TwigQueryStats stats_;
};

}  // namespace

StatusOr<TwigQuery> ParseTwigQuery(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty twig pattern");
  TwigParser parser(text);
  PBITREE_ASSIGN_OR_RETURN(TwigQuery q, parser.Parse());
  if (q.steps.empty()) return Status::InvalidArgument("empty twig pattern");
  return q;
}

StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm,
                                       const ElementSetProvider& provider,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats) {
  Evaluator evaluator(bm, provider, spec, options);
  PBITREE_ASSIGN_OR_RETURN(Operand answer,
                           evaluator.Fold(query, /*forward=*/true));
  StatusOr<ElementSet> result =
      answer.owned ? answer.set : CopySet(bm, answer.set);
  if (result.ok() && stats != nullptr) {
    *stats = std::move(evaluator.stats());
    stats->final_count = result->num_records();
  }
  return result;
}

StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats) {
  std::vector<ElementSet> extracted;
  ElementSetProvider provider =
      [&](const std::string& tag) -> StatusOr<ElementSet> {
    PBITREE_ASSIGN_OR_RETURN(ElementSet set,
                             ExtractTagSetByName(bm, tree, spec, tag));
    extracted.push_back(set);
    return set;
  };
  auto result = EvaluateTwigQuery(bm, provider, spec, query, options, stats);
  for (ElementSet& set : extracted) {
    Status drop = set.file.Drop(bm);
    if (!drop.ok() && result.ok()) {
      result->file.Drop(bm);
      result = drop;
    }
  }
  return result;
}

}  // namespace pbitree
