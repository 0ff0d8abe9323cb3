#include "join/shcj.h"

#include "join/hash_equijoin.h"
#include "join/validate.h"

namespace pbitree {

Status Shcj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
            ResultSink* sink) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("SHCJ", a, d, &empty));
  if (empty) return Status::OK();
  if (!a.SingleHeight()) {
    return Status::InvalidArgument(
        "SHCJ requires a single-height ancestor set (use MHCJ)");
  }
  return HashEquijoinAtHeight(ctx, a.file, d.file, a.MinHeight(), sink);
}

}  // namespace pbitree
