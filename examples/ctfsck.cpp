// ctfsck: offline consistency checker for Cubetree stores, built on
// src/check. It checks packed R-tree files, each in one forward pass, and
// whole forests (manifest, plan, every main and delta tree, orphan files),
// and reports every violated invariant it can find instead of stopping at
// the first.
//
// Usage: see PrintHelp() below (ctfsck --help).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/logging.h"
#include "cubetree/forest.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"

using namespace cubetree;

namespace {

// Exit codes (also documented in --help and DESIGN.md).
constexpr int kExitClean = 0;
constexpr int kExitErrors = 1;
constexpr int kExitWarnings = 2;
constexpr int kExitMissing = 3;
constexpr int kExitIo = 4;
constexpr int kExitUsage = 64;

void PrintHelp(std::FILE* out) {
  std::fprintf(
      out,
      "ctfsck — offline invariant checker for Cubetree stores\n"
      "\n"
      "usage:\n"
      "  ctfsck [options] tree <file.ctr>        check one packed R-tree\n"
      "  ctfsck [options] forest <dir> <name>    check a whole forest\n"
      "  ctfsck                                  self-demo on a fresh "
      "forest\n"
      "\n"
      "Every check reads each page of each tree file once and verifies\n"
      "its CRC against the .crc sidecar, the metadata, the node headers,\n"
      "pack order, view runs, leaf fill and zero suppression, and the\n"
      "MBRs, child pointers and levels of the internal nodes. A forest\n"
      "check also reports every file Recover would sweep.\n"
      "\n"
      "options:\n"
      "  --json            emit the report as JSON on stdout\n"
      "  --stats           dump the process metrics registry (buffer pool\n"
      "                    hits, pages touched, ...) to stderr on exit\n"
      "  --pool-pages=N    buffer-pool capacity in pages, 1 to 262144\n"
      "                    (8 KiB each; default 1024)\n"
      "  --failpoints      list every registered fault-injection point and\n"
      "                    exit (see CUBETREE_FAILPOINTS below)\n"
      "  --help            this text\n"
      "\n"
      "exit codes:\n"
      "  0   clean — no warnings, no errors\n"
      "  1   at least one invariant violation (severity error)\n"
      "  2   warnings only\n"
      "  3   target file or forest does not exist\n"
      "  4   I/O failure while checking\n"
      "  64  usage error\n");
}

/// The largest --pool-pages: 2 GiB of 8 KiB frames, which the pool
/// allocates up front.
constexpr uint64_t kMaxPoolPages = uint64_t{1} << 18;

struct CliOptions {
  bool json = false;
  bool stats = false;
  size_t pool_pages = 1024;
};

// Dumps the metrics registry on every exit path once --stats armed it.
// Goes to stderr so the --json report on stdout stays machine-parseable.
struct StatsDumper {
  bool enabled = false;
  ~StatsDumper() {
    if (!enabled) return;
    std::fprintf(stderr, "%s",
                 obs::MetricsRegistry::Instance().DumpText().c_str());
  }
};

/// Prints the report of a `what` check that ended with `status`, and maps
/// the outcome to an exit code. A non-OK status means the check could not
/// run at all.
int Report(const char* what, const Status& status, const CheckReport& report,
           const CliOptions& cli) {
  if (!status.ok()) {
    std::fprintf(stderr, "ctfsck: %s check could not run: %s\n", what,
                 status.ToString().c_str());
    return status.IsNotFound() ? kExitMissing : kExitIo;
  }
  if (cli.json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  if (report.errors() > 0) return kExitErrors;
  if (report.warnings() > 0) return kExitWarnings;
  return kExitClean;
}

int ListFailpoints() {
  std::printf(
      "Registered fault-injection points (arm via CUBETREE_FAILPOINTS):\n"
      "\n"
      "  CUBETREE_FAILPOINTS='name=ACTION[(MAX)][@HIT][;name=...]'\n"
      "  ACTION: error | torn | crash | throw | bitflip | corrupt_page |\n"
      "          enospc | short_write\n"
      "  @HIT:   trigger on the Nth hit of the point (default 1)\n"
      "  (MAX):  stay armed for MAX triggers (default: unlimited)\n"
      "\n");
  for (const FaultInjector::PointInfo& point :
       FaultInjector::Instance().RegisteredPoints()) {
    std::printf("  %-26s %s\n", point.name, point.description);
  }
  return kExitClean;
}

int SelfDemo(const CliOptions& cli) {
  std::printf("ctfsck self-demo: building a small forest first...\n");
  std::error_code ec;
  std::filesystem::remove_all("ctfsck_demo", ec);
  ec.clear();
  std::filesystem::create_directories("ctfsck_demo", ec);
  if (ec) {
    std::fprintf(stderr, "ctfsck: mkdir ctfsck_demo: %s\n",
                 ec.message().c_str());
    return kExitIo;
  }
  BufferPool pool(cli.pool_pages);
  CubetreeForest::Options options;
  options.dir = "ctfsck_demo";
  options.name = "demo";
  auto forest_result = CubetreeForest::Create(options, &pool);
  if (!forest_result.ok()) {
    std::fprintf(stderr, "ctfsck: demo create failed: %s\n",
                 forest_result.status().ToString().c_str());
    return kExitIo;
  }
  auto forest = std::move(forest_result).value();
  // One arity-1 view with ascending keys — already in pack order.
  struct Provider : CubetreeForest::ViewDataProvider {
    Result<std::unique_ptr<RecordStream>> OpenViewStream(
        const ViewDef& view) override {
      std::vector<char> flat;
      std::vector<char> rec(ViewRecordBytes(view.arity()));
      for (Coord x = 1; x <= 500; ++x) {
        Coord coords[kMaxDims] = {x};
        EncodeViewRecord(rec.data(), coords, view.arity(), AggValue{x, 1});
        flat.insert(flat.end(), rec.begin(), rec.end());
      }
      return std::unique_ptr<RecordStream>(new MemoryRecordStream(
          std::move(flat), ViewRecordBytes(view.arity())));
    }
  } provider;
  ViewDef v;
  v.id = 1;
  v.attrs = {0};
  Status built = forest->Build({v}, &provider);
  // A partial refresh on top leaves a pending delta tree, so the check
  // covers delta files as well as the main tree.
  if (built.ok()) built = forest->ApplyDeltaPartial(&provider);
  if (!built.ok()) {
    std::fprintf(stderr, "ctfsck: demo build failed: %s\n",
                 built.ToString().c_str());
    return kExitIo;
  }
  forest.reset();
  CheckReport report;
  const Status status = CheckForest("ctfsck_demo", "demo", &pool, &report);
  return Report("forest", status, report, cli);
}

}  // namespace

int main(int argc, char** argv) {
  cubetree::InitLogLevelFromEnv();
  CliOptions cli;
  StatsDumper stats_dumper;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp(stdout);
      return kExitClean;
    } else if (arg == "--failpoints") {
      return ListFailpoints();
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--stats") {
      cli.stats = true;
      stats_dumper.enabled = true;
    } else if (arg.rfind("--pool-pages=", 0) == 0) {
      const std::optional<uint64_t> n = cubetree::ParseUint(
          std::string_view(arg).substr(std::strlen("--pool-pages=")),
          kMaxPoolPages);
      if (!n.has_value() || *n == 0) {
        std::fprintf(stderr, "ctfsck: bad --pool-pages value: %s\n",
                     arg.c_str());
        return kExitUsage;
      }
      cli.pool_pages = *n;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "ctfsck: unknown option %s\n", arg.c_str());
      PrintHelp(stderr);
      return kExitUsage;
    } else {
      args.push_back(std::move(arg));
    }
  }

  if (args.empty()) return SelfDemo(cli);

  const std::string& cmd = args[0];
  if (cmd != "tree" && cmd != "forest") {
    std::fprintf(stderr, "ctfsck: unknown subcommand %s\n", cmd.c_str());
    PrintHelp(stderr);
    return kExitUsage;
  }

  // `tree <file>`: distinguish "not there" (exit 3) from "there but
  // unreadable" (exit 4) up front.
  if (args.size() == 2 && ::access(args[1].c_str(), F_OK) != 0) {
    std::fprintf(stderr, "ctfsck: %s: no such file\n", args[1].c_str());
    return kExitMissing;
  }

  CheckReport report;
  if (args[0] == "tree" && args.size() == 2) {
    // A lone file's views are unknown: no view arities to check against.
    const Status status = CheckTree(args[1], nullptr, &report);
    return Report("tree", status, report, cli);
  }
  if (args[0] == "forest" && args.size() == 3) {
    BufferPool pool(cli.pool_pages);
    const Status status = CheckForest(args[1], args[2], &pool, &report);
    return Report("forest", status, report, cli);
  }

  PrintHelp(stderr);
  return kExitUsage;
}
