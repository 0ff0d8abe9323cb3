#include "pbitree/code.h"

#include <string>

namespace pbitree {

Status ValidateSpec(const PBiTreeSpec& spec) {
  if (spec.height < 1 || spec.height > kMaxTreeHeight) {
    return Status::InvalidArgument("PBiTree height must be in [1, 63], got " +
                                   std::to_string(spec.height));
  }
  return Status::OK();
}

StatusOr<Code> CheckedCodeOfTopDown(uint64_t alpha, int level,
                                    const PBiTreeSpec& spec) {
  PBITREE_RETURN_IF_ERROR(ValidateSpec(spec));
  if (level < 0 || level >= spec.height) {
    return Status::InvalidArgument(
        "CodeOfTopDown: level " + std::to_string(level) +
        " outside [0, " + std::to_string(spec.height - 1) + "]");
  }
  if (alpha >= (uint64_t{1} << level)) {
    return Status::InvalidArgument(
        "CodeOfTopDown: alpha " + std::to_string(alpha) +
        " outside level " + std::to_string(level) + " (has " +
        std::to_string(uint64_t{1} << level) + " nodes)");
  }
  return CodeOfTopDown(alpha, level, spec);
}

}  // namespace pbitree
