#ifndef PBITREE_STORAGE_FACTORY_H_
#define PBITREE_STORAGE_FACTORY_H_

#include <string>

#include "common/status.h"
#include "storage/page_codec.h"

namespace pbitree {

/// \brief One parse/validate path for the storage knobs every tool
/// exposes (--backend, --page-codec), so the CLI, the serve daemon,
/// benches and MakeIoBackend itself agree on the accepted vocabulary
/// and produce one error text.

/// Validates an IoBackend kind string: "file" or "mem". The error is
/// the single user-facing "unknown backend" message.
Status ValidateIoBackendKind(const std::string& kind);

/// The --help vocabulary for --backend flags.
const char* IoBackendHelp();

/// Whether `kind` persists to a file on disk, so an opened database
/// restores its allocation frontier from the file size.
bool IsFileBackend(const std::string& kind);

/// Parses a page-codec name ("raw", "for-delta" — the PageCodecName
/// vocabulary, case-sensitive).
StatusOr<PageCodecKind> ParsePageCodecKind(const std::string& name);

/// The --help vocabulary for --page-codec flags.
const char* PageCodecHelp();

/// Codec used for newly created element-set files when the caller does
/// not pass one explicitly: the PBITREE_PAGE_CODEC environment variable
/// (default "raw"). Like the other checked env knobs, a set-but-invalid
/// value aborts with a message instead of being silently ignored.
PageCodecKind AmbientPageCodec();

}  // namespace pbitree

#endif  // PBITREE_STORAGE_FACTORY_H_
