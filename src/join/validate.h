#ifndef PBITREE_JOIN_VALIDATE_H_
#define PBITREE_JOIN_VALIDATE_H_

#include <string>

#include "common/status.h"
#include "join/element_set.h"

namespace pbitree {

/// \brief Shared validation preamble of the join entry points.
///
/// Checks run in the order every algorithm historically applied them:
/// the empty-input short-circuit first (*empty = true, OK — the caller
/// returns an empty result without further validation), then the
/// same-PBiTree check. Error text is uniform across algorithms; `name`
/// prefixes it.
inline Status ValidateJoinInputs(const char* name, const ElementSet& a,
                                 const ElementSet& d, bool* empty) {
  *empty = a.num_records() == 0 || d.num_records() == 0;
  if (*empty) return Status::OK();
  if (a.spec != d.spec) {
    return Status::InvalidArgument(std::string(name) +
                                   ": inputs from different PBiTrees");
  }
  return Status::OK();
}

}  // namespace pbitree

#endif  // PBITREE_JOIN_VALIDATE_H_
