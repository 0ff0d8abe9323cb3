// pbitree_serverd — the long-lived query service daemon.
//
//   pbitree_serverd <db> [--backend=file|mem]
//
// Loads the catalog once, keeps the buffer pool and element-set
// handles warm, and serves containment joins to concurrent clients
// over the serve/protocol.h wire format (see docs/ARCHITECTURE.md,
// "Serving layer"). Results stream while joins run; an admission
// controller shares the pool and page budget across clients.
//
// Configuration is environment-driven (all validated — a set knob
// outside its range aborts with the accepted range):
//
//   PBITREE_SERVE_PORT            listen port, 0 = ephemeral (default 7433)
//   PBITREE_SERVE_MAX_CLIENTS     concurrent connections   (default 64)
//   PBITREE_SERVE_MAX_CONCURRENT  queries executing at once (default 4)
//   PBITREE_SERVE_QUEUE_DEPTH     admission queue length    (default 16)
//   PBITREE_SERVE_WORK_PAGES     page budget shared by the concurrent
//                                 queries                   (default 512)
//   PBITREE_SERVE_THREADS        segment fan-out width; the server owns
//                                 THREADS - 1 pool workers  (default 1)
//   PBITREE_SERVE_POOL_PAGES     buffer-pool frames        (default 1024)
//   PBITREE_RESULT_CACHE_BYTES   result-cache byte budget, 0 turns the
//                                 cache off                 (default 64 MiB)
//
// SIGINT/SIGTERM drain gracefully: stop accepting, cancel queued
// admissions, finish in-flight queries and flush their sinks, then
// flush the pool and Sync the backend. Exit code 0 on a clean drain.

#include <signal.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "serve/server.h"
#include "storage/element_store.h"
#include "storage/factory.h"
#include "storage/segment_store.h"

using namespace pbitree;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "pbitree_serverd: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string backend = "file";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      backend = arg.substr(10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s <db> [--backend=%s]\n", argv[0],
                   IoBackendHelp());
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (db_path.empty()) {
      db_path = arg;
    } else {
      std::fprintf(stderr, "usage: %s <db> [--backend=%s]\n", argv[0],
                   IoBackendHelp());
      return 2;
    }
  }
  if (db_path.empty()) {
    std::fprintf(stderr, "usage: %s <db> [--backend=%s]\n", argv[0],
                   IoBackendHelp());
    return 2;
  }

  // Block the shutdown signals before any thread exists so every
  // server thread inherits the mask; the main thread then sigwaits —
  // no async handler, no races.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) {
    return Fail(Status::Internal("pthread_sigmask failed"));
  }

  const size_t pool_pages = static_cast<size_t>(
      EnvInt64Checked("PBITREE_SERVE_POOL_PAGES", 1024, 8, 1 << 24));
  serve::ServeConfig cfg = serve::ServeConfig::FromEnv();

  // A SegmentStore opens any database: level 0 (every pre-sharding
  // file) is the plain single-file layout, level l > 0 additionally
  // opens the 2^l segment files next to it.
  SegmentStore::Options sopts;
  sopts.backend = backend;
  sopts.path = db_path;
  sopts.pool_pages = pool_pages;
  auto store = SegmentStore::Open(sopts);
  if (!store.ok()) return Fail(store.status());
  const size_t num_sets = (*store)->main_catalog()->size();
  if ((*store)->level() > 0) {
    std::printf("pbitree_serverd: segmented database, level %d (%zu segment "
                "files)\n",
                (*store)->level(), (*store)->num_segments());
  }

  serve::Server server(store->get(), cfg);

  // Level 0 is served through an element store: joins pin snapshot
  // epochs, `update` requests commit durably and the result cache keys
  // on the epoch. Segmented stores are served without one, read-only
  // (updates answer with the typed Unimplemented condition); Start()
  // refuses any other pairing. SegmentStore::Open already replayed any
  // pending commit log before the pool warmed.
  std::unique_ptr<ElementSetStore> estore;
  if ((*store)->level() == 0) {
    auto opened = ElementSetStore::Open((*store)->main_bm());
    if (!opened.ok()) return Fail(opened.status());
    estore = std::move(*opened);
    server.AttachElementStore(estore.get());
  }

  if (Status st = server.Start(); !st.ok()) return Fail(st);

  // CI and scripts parse this line (and wait for it) — keep it stable.
  std::printf("pbitree_serverd listening on 127.0.0.1:%d (%zu sets, pool=%zu "
              "pages, max_concurrent=%zu, queue=%zu)\n",
              server.port(), num_sets, pool_pages, cfg.max_concurrent,
              cfg.queue_depth);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("pbitree_serverd: received %s, draining...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);

  if (Status st = server.Shutdown(); !st.ok()) return Fail(st);
  std::printf("pbitree_serverd: drained, served %llu queries, backend synced\n",
              static_cast<unsigned long long>(server.queries_served()));
  return 0;
}
