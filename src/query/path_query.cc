#include "query/path_query.h"

#include <algorithm>

#include "sort/external_sort.h"

namespace pbitree {

StatusOr<PathQuery> ParsePathQuery(std::string_view text) {
  PathQuery q;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '/') {
      return Status::InvalidArgument("path step must start with '//' at offset " +
                                     std::to_string(i));
    }
    if (i + 1 >= text.size() || text[i + 1] != '/') {
      return Status::NotSupported(
          "only the descendant axis '//' is supported (child-axis "
          "parenthood is not derivable from PBiTree codes alone)");
    }
    i += 2;
    size_t start = i;
    while (i < text.size() && text[i] != '/') {
      if (text[i] == '[' || text[i] == '@') {
        return Status::NotSupported("predicates are not supported");
      }
      ++i;
    }
    if (i == start) {
      return Status::InvalidArgument("empty step name at offset " +
                                     std::to_string(start));
    }
    q.steps.emplace_back(text.substr(start, i - start));
  }
  if (q.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  return q;
}

StatusOr<ElementSet> DistinctDescendants(BufferManager* bm,
                                         const HeapFile& pair_file,
                                         PBiTreeSpec spec, size_t work_pages) {
  // Rewrite the descendant column as element records, sort by code,
  // then emit each code once.
  PBITREE_ASSIGN_OR_RETURN(HeapFile column, HeapFile::Create(bm));
  {
    HeapFile::Appender app(bm, &column);
    HeapFile::Scanner scan(bm, pair_file);
    for (auto batch = scan.NextPairBatch(); !batch.empty();
         batch = scan.NextPairBatch()) {
      for (const ResultPair& pair : batch) {
        PBITREE_RETURN_IF_ERROR(
            app.AppendElement(ElementRecord{pair.descendant_code, 0, 0}));
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

StatusOr<ElementSet> EvaluatePathQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const PathQuery& query,
                                       const RunOptions& options,
                                       PathQueryStats* stats) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty path query");
  }
  PBITREE_ASSIGN_OR_RETURN(
      ElementSet current,
      ExtractTagSetByName(bm, tree, spec, query.steps.front()));

  for (size_t step = 1; step < query.steps.size(); ++step) {
    auto next = ExtractTagSetByName(bm, tree, spec, query.steps[step]);
    if (!next.ok()) {
      current.file.Drop(bm);
      return next.status();
    }

    // Containment join: current matches as ancestors, next tag as
    // descendants; the framework picks the algorithm (the intermediate
    // set is neither sorted nor indexed — Table 1's last row).
    auto pairs = HeapFile::Create(bm);
    if (!pairs.ok()) {
      current.file.Drop(bm);
      next->file.Drop(bm);
      return pairs.status();
    }
    Status join_status;
    {
      MaterializeSink sink(bm, &pairs.value());
      auto run = RunAuto(bm, current, *next, &sink, options);
      Status fin = sink.Finish();
      if (run.ok() && stats != nullptr) stats->joins.push_back(*run);
      // A failed close means the pair file lost its tail page — as
      // fatal as the join itself failing.
      join_status = run.ok() ? fin : run.status();
    }
    Status drop_cur = current.file.Drop(bm);
    Status drop_next = next->file.Drop(bm);
    if (!join_status.ok()) {
      pairs->Drop(bm);
      return join_status;
    }
    PBITREE_RETURN_IF_ERROR(drop_cur);
    PBITREE_RETURN_IF_ERROR(drop_next);

    auto distinct =
        DistinctDescendants(bm, *pairs, spec, options.work_pages);
    Status drop_pairs = pairs->Drop(bm);
    if (!distinct.ok()) return distinct.status();
    PBITREE_RETURN_IF_ERROR(drop_pairs);
    current = *distinct;
  }
  if (stats != nullptr) stats->final_count = current.num_records();
  return current;
}

}  // namespace pbitree
