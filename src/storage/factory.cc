#include "storage/factory.h"

#include <cstdio>
#include <cstdlib>

namespace pbitree {

Status ValidateIoBackendKind(const std::string& kind) {
  if (kind == "file" || kind == "mem") return Status::OK();
  return Status::InvalidArgument("unknown backend '" + kind + "' (want " +
                                 IoBackendHelp() + ")");
}

const char* IoBackendHelp() {
  return "file|mem";
}

bool IsFileBackend(const std::string& kind) { return kind == "file"; }

StatusOr<PageCodecKind> ParsePageCodecKind(const std::string& name) {
  if (name == PageCodecName(PageCodecKind::kRaw)) return PageCodecKind::kRaw;
  if (name == PageCodecName(PageCodecKind::kFoRDelta)) {
    return PageCodecKind::kFoRDelta;
  }
  return Status::InvalidArgument("unknown page codec '" + name + "' (want " +
                                 PageCodecHelp() + ")");
}

const char* PageCodecHelp() {
  return "raw|for-delta";
}

PageCodecKind AmbientPageCodec() {
  const char* v = std::getenv("PBITREE_PAGE_CODEC");
  if (v == nullptr || *v == '\0') return PageCodecKind::kRaw;
  StatusOr<PageCodecKind> parsed = ParsePageCodecKind(v);
  if (!parsed.ok()) {
    std::fprintf(stderr, "PBITREE_PAGE_CODEC=%s: %s\n", v,
                 parsed.status().message().c_str());
    std::abort();
  }
  return parsed.value();
}

}  // namespace pbitree
