#include "query/twig_query.h"

#include <utility>

#include "sort/external_sort.h"
#include "storage/scratch.h"

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
        return Status::Unimplemented(
            "only the descendant axis '//' is supported");
      }
      pos_ += 2;
      TwigStep step;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '/' &&
             text_[pos_] != '[' && text_[pos_] != ']') {
        if (text_[pos_] == '@') {
          return Status::Unimplemented("attribute tests are not supported");
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

/// A fold operand: a provider set is borrowed (`owner` holds nothing);
/// a set the evaluator built is owned, and freed once it is consumed.
struct Operand {
  ElementSet set;
  ScratchFile owner;
};

/// An operand that owns `set`'s pages.
Operand Owned(BufferManager* bm, const ElementSet& set) {
  return Operand{set, ScratchFile(bm, set.file)};
}

/// Deduplicates one column of a join-result pair file into an element
/// set ordered by code (not document order). The pair file is not
/// dropped.
StatusOr<Operand> DistinctColumn(BufferManager* bm, const HeapFile& pair_file,
                                 Keep keep, PBiTreeSpec spec,
                                 size_t work_pages) {
  // Rewrite the column as element records, sort by code, then emit
  // each code once.
  PBITREE_ASSIGN_OR_RETURN(ScratchFile column, ScratchFile::Create(bm));
  {
    HeapFile::Appender app(bm, column.get());
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
  PBITREE_ASSIGN_OR_RETURN(
      SortedStream sorted,
      ExternalSort(bm, *column, work_pages, SortOrder::kCodeOrder));
  PBITREE_RETURN_IF_ERROR(column.Drop());

  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(bm, spec));
  Code last = kInvalidCode;
  for (; sorted.live(); sorted.Advance()) {
    if (sorted.rec().code != last) {
      PBITREE_RETURN_IF_ERROR(builder.Add(sorted.rec()));
      last = sorted.rec().code;
    }
  }
  PBITREE_RETURN_IF_ERROR(sorted.status());
  PBITREE_RETURN_IF_ERROR(sorted.Close());
  PBITREE_ASSIGN_OR_RETURN(ElementSet distinct, builder.Build());
  return Owned(bm, distinct);
}

/// A fresh copy of `set`, for a one-step answer that would otherwise be
/// the provider's own set.
StatusOr<Operand> CopySet(BufferManager* bm, const ElementSet& set) {
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
  return Owned(bm, copy);
}

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
      PBITREE_ASSIGN_OR_RETURN(Operand next, StepSet(step(k)));
      PBITREE_ASSIGN_OR_RETURN(
          acc, forward
                   ? JoinAndRelease(std::move(acc), std::move(next),
                                    Keep::kDescendants)
                   : JoinAndRelease(std::move(next), std::move(acc),
                                    Keep::kAncestors));
    }
    return acc;
  }

  TwigQueryStats& stats() { return stats_; }

 private:
  /// The elements of `step`'s tag that have a descendant among each
  /// predicate's heads.
  StatusOr<Operand> StepSet(const TwigStep& step) {
    Operand set;
    PBITREE_ASSIGN_OR_RETURN(set.set, provider_(step.tag));
    for (const TwigQuery& pred : step.predicates) {
      PBITREE_ASSIGN_OR_RETURN(Operand heads, Fold(pred, /*forward=*/false));
      PBITREE_ASSIGN_OR_RETURN(set, JoinAndRelease(std::move(set),
                                                   std::move(heads),
                                                   Keep::kAncestors));
    }
    return set;
  }

  /// Joins `a` (ancestors) with `d` (descendants) and keeps the distinct
  /// `keep` column as a new owned set, freeing `a` then `d`.
  StatusOr<Operand> JoinAndRelease(Operand a, Operand d, Keep keep) {
    PBITREE_ASSIGN_OR_RETURN(Operand kept, JoinDistinct(a.set, d.set, keep));
    PBITREE_RETURN_IF_ERROR(a.owner.Drop());
    PBITREE_RETURN_IF_ERROR(d.owner.Drop());
    return kept;
  }

  StatusOr<Operand> JoinDistinct(const ElementSet& a, const ElementSet& d,
                                 Keep keep) {
    PBITREE_ASSIGN_OR_RETURN(ScratchFile pairs, ScratchFile::Create(bm_));
    {
      MaterializeSink sink(bm_, pairs.get());
      PBITREE_ASSIGN_OR_RETURN(RunResult run,
                               RunAuto(bm_, a, d, &sink, options_));
      // A failed close means the pair file lost its tail page — as
      // fatal as the join itself failing.
      PBITREE_RETURN_IF_ERROR(sink.Finish());
      stats_.joins.push_back(std::move(run));
    }
    PBITREE_ASSIGN_OR_RETURN(
        Operand kept,
        DistinctColumn(bm_, *pairs, keep, spec_, options_.work_pages));
    PBITREE_RETURN_IF_ERROR(pairs.Drop());
    if (keep == Keep::kAncestors) ++stats_.semijoins;
    return kept;
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
  if (!answer.owner->valid()) {
    PBITREE_ASSIGN_OR_RETURN(answer, CopySet(bm, answer.set));
  }
  if (stats != nullptr) {
    *stats = std::move(evaluator.stats());
    stats->final_count = answer.set.num_records();
  }
  answer.set.file = answer.owner.Release();  // the caller's from here on
  return answer.set;
}

StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats) {
  std::vector<ScratchFile> extracted;
  ElementSetProvider provider =
      [&](const std::string& tag) -> StatusOr<ElementSet> {
    PBITREE_ASSIGN_OR_RETURN(ElementSet set,
                             ExtractTagSetByName(bm, tree, spec, tag));
    extracted.emplace_back(bm, set.file);
    return set;
  };
  PBITREE_ASSIGN_OR_RETURN(
      ElementSet result,
      EvaluateTwigQuery(bm, provider, spec, query, options, stats));
  ScratchFile answer(bm, result.file);
  for (ScratchFile& set : extracted) PBITREE_RETURN_IF_ERROR(set.Drop());
  result.file = answer.Release();
  return result;
}

}  // namespace pbitree
