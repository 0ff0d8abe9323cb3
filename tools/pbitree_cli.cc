// pbitree_cli — encode XML documents into a persistent PBiTree database
// and run containment path queries against it.
//
//   pbitree_cli encode <doc.xml> <db>    parse + binarize + store one
//                                        element set per tag (catalog)
//   pbitree_cli list <db>                show the stored element sets
//   pbitree_cli query <db> '//a//b//c'   evaluate a descendant path by
//                                        chaining containment joins
//   pbitree_cli update <db> insert <set> <parent> <tag> <doc>
//   pbitree_cli update <db> delete <set> <code>
//                                        mutate a stored set in place
//                                        (epoch-bumping durable commit)
//
// Run `pbitree_cli <command> --help` for per-command options. Global
// flags: `--backend=file|mem` selects the storage backend through the
// IoBackend factory (file — the default — persists at <db>; mem runs
// the same commands against a volatile in-memory store, useful for
// benchmarking the algorithms without touching disk). `--metrics`
// prints the query's full per-operation metrics report as one JSON
// object.
//
// The database file survives restarts: `encode` once, `query` many
// times. Stored sets are never indexed, and freshly loaded ones are not
// sorted either, so the framework picks the partitioning algorithms
// (Table 1, last row).
//
// Exit codes: 0 success, 1 a Status failure (I/O error, corruption,
// bad query), 2 usage error.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "join/element_set.h"
#include "obs/metrics.h"
#include "pbitree/binarize.h"
#include "query/twig_query.h"
#include "serve/client.h"
#include "storage/catalog.h"
#include "storage/element_store.h"
#include "storage/factory.h"
#include "storage/io_backend.h"
#include "storage/segment_store.h"
#include "xml/parser.h"

using namespace pbitree;

namespace {

constexpr size_t kPoolPages = 1024;

/// Flags shared by every subcommand.
struct GlobalOptions {
  std::string backend = "file";  // IoBackend factory kind (file | mem)
  std::string server;            // host:port — route to pbitree_serverd
  std::string alg = "auto";      // server mode: algorithm to request
  int segments = -1;   // encode: code-space sharding level l (2^l segment
                       // files); -1 = the database's level (0 if new)
  std::string page_codec_name;  // encode: raw string from --page-codec
  std::optional<PageCodecKind> page_codec;  // parsed; nullopt = ambient
  bool metrics = false;
  bool help = false;
};

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "usage error: %s (try --help)\n", msg);
  return 2;
}

/// Every subcommand opens its database the same way: SegmentStore::Open
/// replays a pending commit log, then opens the main file and, at level
/// l > 0, the 2^l segment files next to it. `create_level` -1 keeps the
/// database's own level (0 for a new file).
SegmentStore::Options StoreOptions(const GlobalOptions& g,
                                   const std::string& db_path,
                                   int create_level = -1) {
  SegmentStore::Options sopts;
  sopts.backend = g.backend;
  sopts.path = db_path;
  sopts.pool_pages = kPoolPages;
  sopts.create_level = create_level;
  sopts.page_codec = g.page_codec;
  return sopts;
}

/// Stores one element set per tag, most frequent first (the catalog
/// holds 42 entries, so the frequent tags win the slots; a tag already
/// in the catalog is replaced and takes no new slot). Exits 1 when any
/// tag was skipped, for a full catalog or a failed store. Each set is
/// extracted into a scratch in-memory database first; StoreSet then
/// copies it into the main file (level 0) or shards it over the 2^l
/// segment files by code space, with ancestor replication at the cut
/// keeping per-segment joins exact.
int CmdEncode(const GlobalOptions& g, const std::vector<std::string>& args) {
  const std::string& xml_path = args[0];
  const std::string& db_path = args[1];
  DataTree tree;
  if (Status st = ParseXmlFile(xml_path, &tree); !st.ok()) return Fail(st);
  PBiTreeSpec spec;
  BinarizeOptions bopts;
  bopts.slack_levels = 2;  // leave update headroom in the stored codes
  if (Status st = BinarizeTree(&tree, &spec, bopts); !st.ok()) return Fail(st);
  std::printf("parsed %zu elements, %zu tags, PBiTree height %d\n",
              tree.size(), tree.num_tags(), spec.height);

  auto store = SegmentStore::Open(StoreOptions(g, db_path, g.segments));
  if (!store.ok()) return Fail(store.status());

  std::unique_ptr<DiskManager> scratch(DiskManager::OpenInMemory());
  BufferManager scratch_bm(scratch.get(), kPoolPages);

  std::vector<std::pair<size_t, TagId>> tags;
  for (TagId t = 0; t < tree.num_tags(); ++t) {
    tags.emplace_back(tree.NodesWithTag(t).size(), t);
  }
  std::sort(tags.rbegin(), tags.rend());
  size_t stored = 0, skipped = 0, full = 0;
  for (const auto& [count, tag] : tags) {
    const Catalog* catalog = (*store)->main_catalog();
    if (!catalog->Contains(tree.tag_name(tag)) &&
        catalog->size() >= Catalog::kMaxEntries) {
      ++full;
      continue;
    }
    // The scratch copy is StoreSet's input only — keep it raw; StoreSet
    // writes the persistent set with the requested codec.
    auto set = ExtractTagSet(&scratch_bm, tree, spec, tag, /*doc=*/0,
                             PageCodecKind::kRaw);
    if (!set.ok()) return Fail(set.status());
    Status st = (*store)->StoreSet(tree.tag_name(tag), *set, &scratch_bm);
    if (Status drop = set->file.Drop(&scratch_bm); !drop.ok()) {
      return Fail(drop);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "skipping '%s': %s\n", tree.tag_name(tag).c_str(),
                   st.ToString().c_str());
      ++skipped;
      continue;
    }
    ++stored;
  }
  if (full > 0) {
    std::fprintf(stderr, "catalog full; skipping %zu less frequent tags\n",
                 full);
  }
  if (Status st = (*store)->SaveCatalogs(); !st.ok()) return Fail(st);
  std::printf("stored %zu element sets in %s", stored, db_path.c_str());
  if ((*store)->level() > 0) {
    std::printf(" (%zu segment files)", (*store)->num_segments());
  }
  std::printf("\n");
  return skipped + full > 0 ? 1 : 0;
}

/// Connects to a running pbitree_serverd (--server host:port).
StatusOr<std::unique_ptr<serve::Client>> ConnectServer(const GlobalOptions& g) {
  std::string host;
  int port = 0;
  PBITREE_RETURN_IF_ERROR(serve::ParseHostPort(g.server, &host, &port));
  auto client = std::make_unique<serve::Client>();
  PBITREE_RETURN_IF_ERROR(client->Connect(host, port));
  return client;
}

int CmdList(const GlobalOptions& g, const std::vector<std::string>& args) {
  if (!g.server.empty()) {
    auto client = ConnectServer(g);
    if (!client.ok()) return Fail(client.status());
    auto listing = (*client)->List();
    if (!listing.ok()) return Fail(listing.status());
    std::printf("%s", listing->c_str());
    return 0;
  }
  if (args.empty()) return Usage("list needs <db> (or --server host:port)");
  // Load reads catalog metadata only; no segment page is touched.
  auto store = SegmentStore::Open(StoreOptions(g, args[0]));
  if (!store.ok()) return Fail(store.status());
  if ((*store)->level() > 0) {
    std::printf("segmented database: level %d (%zu segment files)\n",
                (*store)->level(), (*store)->num_segments());
  }
  std::printf("%-32s %12s %10s %8s\n", "name", "elements", "pages", "heights");
  for (const std::string& name : (*store)->Names()) {
    auto set = (*store)->Load(name);
    if (!set.ok()) return Fail(set.status());
    uint64_t pages = 0;
    for (const SegmentedSet::Segment& seg : set->segments) {
      pages += seg.set.num_pages();
    }
    std::printf("%-32s %12llu %10llu %8d\n", name.c_str(),
                static_cast<unsigned long long>(set->num_records),
                static_cast<unsigned long long>(pages),
                std::popcount(set->height_mask));
  }
  return 0;
}

/// Server mode: a two-step descendant path maps onto one containment
/// join executed by the daemon; results stream back and are counted
/// client-side (the CLI reports the count, like local mode).
int CmdQueryServer(const GlobalOptions& g, const std::string& query_text) {
  auto parsed = ParseTwigQuery(query_text);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->steps.size() != 2 || !parsed->steps[0].predicates.empty() ||
      !parsed->steps[1].predicates.empty()) {
    return Usage(
        "--server queries must be a two-step predicate-free path "
        "('//a//b' — one containment join)");
  }
  auto client = ConnectServer(g);
  if (!client.ok()) return Fail(client.status());

  Timer timer;
  CountingSink sink;
  auto summary = (*client)->Join(parsed->steps[0].tag, parsed->steps[1].tag,
                                 g.alg, &sink);
  if (!summary.ok()) return Fail(summary.status());
  std::printf(
      "%llu pairs in %.1f ms  (server: %s, %llu reads, %llu writes, %.1f ms)\n",
      static_cast<unsigned long long>(sink.count()), timer.ElapsedMillis(),
      summary->algorithm.c_str(),
      static_cast<unsigned long long>(summary->page_reads),
      static_cast<unsigned long long>(summary->page_writes),
      summary->wall_seconds * 1000.0);
  if (g.metrics) {
    auto metrics = (*client)->Metrics();
    if (!metrics.ok()) return Fail(metrics.status());
    std::printf("%s\n", metrics->c_str());
  }
  return 0;
}

int CmdQuery(const GlobalOptions& g, const std::vector<std::string>& args) {
  if (!g.server.empty()) return CmdQueryServer(g, args.back());
  if (args.size() < 2) {
    return Usage("query needs <db> and <query> (or --server host:port)");
  }
  const std::string& db_path = args[0];
  const std::string& query_text = args[1];
  auto parsed = ParseTwigQuery(query_text);
  if (!parsed.ok()) return Fail(parsed.status());

  auto opened_store = SegmentStore::Open(StoreOptions(g, db_path));
  if (!opened_store.ok()) return Fail(opened_store.status());
  SegmentStore* store = opened_store->get();

  // The PBiTree spec comes from the first step's stored set.
  auto first = store->Load(parsed->steps.front().tag);
  if (!first.ok()) return Fail(first.status());
  const PBiTreeSpec spec = first->spec;

  // The evaluator borrows provider sets. At level 0 they are the stored
  // sets, joined in place on the main pool. A segmented store's sets
  // are merged views this query materialises, so they and every query
  // temporary live in a scratch in-memory pool that goes away with it.
  BufferManager* bm = store->main_bm();
  std::unique_ptr<DiskManager> scratch_disk;
  std::optional<BufferManager> scratch_bm;
  if (store->level() > 0) {
    scratch_disk.reset(DiskManager::OpenInMemory());
    bm = &scratch_bm.emplace(scratch_disk.get(), kPoolPages);
  }
  ElementSetProvider provider = [&](const std::string& tag) {
    return store->LoadMerged(tag, bm);
  };
  RunOptions opts;
  opts.work_pages = kPoolPages / 2;

  // With --metrics, install a query-level registry scope: every join
  // the evaluation runs bills into it (RunJoin reuses an ambient
  // registry), so the report covers the whole query pipeline.
  std::optional<obs::MetricRegistry> registry;
  std::optional<obs::MetricScope> scope;
  if (g.metrics) {
    registry.emplace();
    scope.emplace(&registry.value());
  }

  Timer timer;
  TwigQueryStats stats;
  auto result = EvaluateTwigQuery(bm, provider, spec, *parsed, opts, &stats);
  if (!result.ok()) return Fail(result.status());
  std::printf("%llu matches in %.1f ms  (%llu containment joins, %llu semijoins)\n",
              static_cast<unsigned long long>(result->num_records()),
              timer.ElapsedMillis(),
              static_cast<unsigned long long>(stats.joins.size()),
              static_cast<unsigned long long>(stats.semijoins));
  if (g.metrics) {
    std::printf("%s\n", registry->Snapshot().ToJson().c_str());
  }
  if (Status st = result->file.Drop(bm); !st.ok()) return Fail(st);
  return 0;
}

bool ParseU64Arg(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Tag and doc ids are stored as 32-bit fields; a wider argument must be
/// rejected here, not truncated on the way into the store or the wire.
bool ParseU32Arg(const std::string& s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseU64Arg(s, &v) || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// One mutation: `insert <set> <parent> <tag> <doc>` or
/// `delete <set> <code>`.
struct UpdateArgs {
  bool insert = false;
  std::string set;
  Code parent = 0;            // insert
  uint32_t tag = 0, doc = 0;  // insert
  Code code = 0;              // delete
};

/// Parses the words after `update [<db>]`. Returns the usage message of
/// the first problem, or nullptr.
const char* ParseUpdateArgs(const std::vector<std::string>& w,
                            UpdateArgs* u) {
  if (w[0] == "insert") {
    if (w.size() < 5) return "update insert needs <set> <parent> <tag> <doc>";
    if (!ParseU64Arg(w[2], &u->parent) || !ParseU32Arg(w[3], &u->tag) ||
        !ParseU32Arg(w[4], &u->doc)) {
      return "update insert takes numeric <parent> <tag> <doc> "
             "(tag and doc must fit in 32 bits)";
    }
    u->insert = true;
  } else if (w[0] == "delete") {
    if (w.size() < 3) return "update delete needs <set> <code>";
    if (!ParseU64Arg(w[2], &u->code)) {
      return "update delete takes a numeric <code>";
    }
  } else {
    return "update action must be insert or delete";
  }
  u->set = w[1];
  return nullptr;
}

/// Applies `u` as one durable epoch-bumping commit, opening the database
/// the way pbitree_serverd does.
StatusOr<serve::Client::UpdateResult> UpdateLocal(const GlobalOptions& g,
                                                  const std::string& db_path,
                                                  const UpdateArgs& u) {
  PBITREE_ASSIGN_OR_RETURN(std::unique_ptr<SegmentStore> store,
                           SegmentStore::Open(StoreOptions(g, db_path)));
  PBITREE_ASSIGN_OR_RETURN(std::unique_ptr<ElementSetStore> estore,
                           ElementSetStore::Open(store->main_bm()));
  serve::Client::UpdateResult r;
  r.code = u.code;
  Status st;
  if (u.insert) {
    StatusOr<Code> code = estore->InsertChild(u.set, u.parent, u.tag, u.doc);
    st = code.status();
    if (code.ok()) r.code = *code;
  } else {
    st = estore->DeleteElement(u.set, u.code);
  }
  if (st.ok()) st = estore->Commit();
  if (!st.ok()) {
    (void)estore->Rollback();
    return st;
  }
  r.epoch = estore->epoch();
  return r;
}

/// `update --server` routes the mutation to a running daemon, which
/// commits it and invalidates its result cache.
StatusOr<serve::Client::UpdateResult> UpdateServer(const GlobalOptions& g,
                                                   const UpdateArgs& u) {
  PBITREE_ASSIGN_OR_RETURN(std::unique_ptr<serve::Client> client,
                           ConnectServer(g));
  if (u.insert) return client->InsertChild(u.set, u.parent, u.tag, u.doc);
  PBITREE_ASSIGN_OR_RETURN(serve::Client::UpdateResult r,
                           client->DeleteElement(u.set, u.code));
  r.code = u.code;
  return r;
}

int CmdUpdate(const GlobalOptions& g, const std::vector<std::string>& args) {
  const bool local = g.server.empty();
  if (local && args.size() < 2) {
    return Usage(
        "update needs <db> and insert|delete ... (or --server host:port)");
  }
  UpdateArgs u;
  if (const char* err = ParseUpdateArgs(
          {args.begin() + (local ? 1 : 0), args.end()}, &u)) {
    return Usage(err);
  }
  auto r = local ? UpdateLocal(g, args[0], u) : UpdateServer(g, u);
  if (!r.ok()) return Fail(r.status());
  std::printf("%s code=%llu %s '%s' (epoch %llu)\n",
              u.insert ? "inserted" : "deleted",
              static_cast<unsigned long long>(r->code),
              u.insert ? "into" : "from", u.set.c_str(),
              static_cast<unsigned long long>(r->epoch));
  return 0;
}

/// One row of the subcommand table: dispatch + its own help surface.
struct Subcommand {
  const char* name;
  const char* synopsis;     // positional arguments
  const char* description;  // one-liner for the global usage listing
  const char* options;      // flags this command honours
  size_t min_args;
  int (*run)(const GlobalOptions&, const std::vector<std::string>&);
};

/// Composed at runtime so the vocabulary lines come from the factory /
/// registry — one source of truth with the parsers.
std::string CommonOptions() {
  return std::string("  --backend=KIND      storage backend: ") +
         IoBackendHelp() +
         "\n"
         "                      (default file; mem is volatile)\n"
         "  --help              show this help\n";
}

const Subcommand kSubcommands[] = {
    {"encode", "<doc.xml> <db>",
     "parse + binarize one document, store an element set per tag",
     "  --segments L        shard each set over 2^L segment files by code\n"
     "                      space; 0 is the single-file layout (default: the\n"
     "                      database's level, 0 for a new file; a database\n"
     "                      keeps its level, and list/query open any level)\n"
     "  --page-codec KIND   page encoding of the stored element sets:\n"
     "                      raw|for-delta (default: PBITREE_PAGE_CODEC or\n"
     "                      raw; readers pick the codec up from the catalog)\n",
     2, CmdEncode},
    {"list", "<db>", "show the element sets stored in the catalog",
     "  --server HOST:PORT  list a running pbitree_serverd's catalog\n", 0,
     CmdList},
    {"query", "<db> '//a[//p]//b//c'",
     "evaluate a descendant path by chaining containment joins",
     "  --metrics           print the per-operation metrics report as JSON\n"
     "  --server HOST:PORT  run on pbitree_serverd ('//a//b' paths only;\n"
     "                      --metrics fetches the server's registry)\n"
     "  --alg NAME          server mode: algorithm to request, or auto\n"
     "                      (default auto; names as listed by the registry)\n",
     1, CmdQuery},
    {"update", "<db> insert|delete <set> ...",
     "mutate a stored element set in place (durable epoch-bumping commit)",
     "  insert <set> <parent> <tag> <doc>\n"
     "                      allocate a free code under <parent> (localized\n"
     "                      re-binarization when the subtree is full) and\n"
     "                      append the element\n"
     "  delete <set> <code> remove the element with <code>\n"
     "  --server HOST:PORT  apply on a running pbitree_serverd instead\n"
     "                      (the daemon commits and invalidates its cache)\n",
     1, CmdUpdate},
};

void PrintGlobalUsage(const char* prog, std::FILE* out) {
  std::fprintf(out, "usage: %s <command> [options] <args>\n\ncommands:\n",
               prog);
  for (const Subcommand& sc : kSubcommands) {
    std::fprintf(out, "  %-7s %-28s %s\n", sc.name, sc.synopsis,
                 sc.description);
  }
  std::fprintf(out,
               "\ncommon options:\n%s\nrun '%s <command> --help' for "
               "command-specific options\n",
               CommonOptions().c_str(), prog);
}

void PrintSubcommandHelp(const char* prog, const Subcommand& sc) {
  std::printf("usage: %s %s [options] %s\n%s\noptions:\n%s%s", prog, sc.name,
              sc.synopsis, sc.description, sc.options,
              CommonOptions().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  GlobalOptions g;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      g.help = true;
      continue;
    }
    if (std::strcmp(arg, "--metrics") == 0) {
      g.metrics = true;
      continue;
    }
    if (std::strcmp(arg, "--segments") == 0 && i + 1 < argc) {
      g.segments = static_cast<int>(std::atol(argv[++i]));
      continue;
    }
    if (std::strncmp(arg, "--segments=", 11) == 0) {
      g.segments = static_cast<int>(std::atol(arg + 11));
      continue;
    }
    if (std::strcmp(arg, "--backend") == 0 && i + 1 < argc) {
      g.backend = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--backend=", 10) == 0) {
      g.backend = arg + 10;
      continue;
    }
    if (std::strcmp(arg, "--server") == 0 && i + 1 < argc) {
      g.server = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--server=", 9) == 0) {
      g.server = arg + 9;
      continue;
    }
    if (std::strcmp(arg, "--alg") == 0 && i + 1 < argc) {
      g.alg = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--alg=", 6) == 0) {
      g.alg = arg + 6;
      continue;
    }
    if (std::strcmp(arg, "--page-codec") == 0 && i + 1 < argc) {
      g.page_codec_name = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--page-codec=", 13) == 0) {
      g.page_codec_name = arg + 13;
      continue;
    }
    if (std::strncmp(arg, "--", 2) == 0) {
      return Usage("unknown flag");
    }
    args.push_back(arg);
  }

  if (args.empty()) {
    PrintGlobalUsage(argv[0], g.help ? stdout : stderr);
    return g.help ? 0 : 2;
  }
  // One vocabulary for the storage knobs: the factory validates, so the
  // CLI, the daemon and MakeIoBackend agree on names and error text.
  if (Status st = ValidateIoBackendKind(g.backend); !st.ok()) {
    std::string msg = st.ToString();
    return Usage(msg.c_str());
  }
  if (!g.page_codec_name.empty()) {
    auto parsed = ParsePageCodecKind(g.page_codec_name);
    if (!parsed.ok()) {
      std::string msg = parsed.status().ToString();
      return Usage(msg.c_str());
    }
    g.page_codec = *parsed;
  }
  if (g.alg != "auto") {
    auto parsed = AlgorithmFromName(g.alg);
    if (!parsed.ok()) {
      std::string msg = parsed.status().ToString();
      return Usage(msg.c_str());
    }
  }

  for (const Subcommand& sc : kSubcommands) {
    if (args[0] != sc.name) continue;
    if (g.help) {
      PrintSubcommandHelp(argv[0], sc);
      return 0;
    }
    std::vector<std::string> rest(args.begin() + 1, args.end());
    if (rest.size() < sc.min_args) {
      std::fprintf(stderr, "usage: %s %s [options] %s\n", argv[0], sc.name,
                   sc.synopsis);
      return 2;
    }
    return sc.run(g, rest);
  }
  PrintGlobalUsage(argv[0], stderr);
  return 2;
}
