// ctfsck: offline consistency checker for Cubetree stores, built on the
// src/check invariant-checker framework. It validates packed R-tree files,
// whole forests (manifest + SelectMapping + every tree), write-ahead logs
// and B+-tree index files, and reports every violated invariant it can
// find instead of stopping at the first.
//
// Usage: see PrintHelp() below (ctfsck --help).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check/checkers.h"
#include "common/logging.h"
#include "check/invariant_checker.h"
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
      "  ctfsck [options] wal <file.wal>         check a write-ahead log\n"
      "  ctfsck [options] btree <file.ctb>       check a B+-tree index\n"
      "  ctfsck                                  self-demo on a fresh "
      "forest\n"
      "\n"
      "options:\n"
      "  --deep            read every page: MBR containment, pack order,\n"
      "                    fill factors, compression round-trips, CRCs\n"
      "                    (default: metadata-level checks only)\n"
      "  --checksums       verify every page of each tree file against its\n"
      "                    .crc sidecar. Findings: checksum-mismatch /\n"
      "                    checksum-sidecar / checksum-count (errors,\n"
      "                    exit 1), checksum-missing (warning, exit 2)\n"
      "  --json            emit the report as JSON on stdout\n"
      "  --stats           dump the process metrics registry (buffer pool\n"
      "                    hits, pages touched, ...) to stderr on exit\n"
      "  --pool-pages=N    buffer-pool capacity in pages (default 1024)\n"
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

struct CliOptions {
  bool deep = false;
  bool checksums = false;
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

/// Runs one checker, prints the report, and maps the outcome to an exit
/// code. A non-OK Run() means the check could not execute at all.
int RunChecker(Checker* checker, const CliOptions& cli) {
  CheckReport report;
  Status status = checker->Run(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "ctfsck: %s check could not run: %s\n",
                 checker->name().c_str(), status.ToString().c_str());
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
  CheckOptions check_options;
  check_options.deep = true;  // The demo always shows the deep checks.
  check_options.checksums = true;
  ForestChecker checker("ctfsck_demo", "demo", &pool, check_options);
  return RunChecker(&checker, cli);
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
    } else if (arg == "--deep") {
      cli.deep = true;
    } else if (arg == "--checksums") {
      cli.checksums = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--stats") {
      cli.stats = true;
      stats_dumper.enabled = true;
    } else if (arg.rfind("--pool-pages=", 0) == 0) {
      char* end = nullptr;
      const unsigned long long n =
          std::strtoull(arg.c_str() + std::strlen("--pool-pages="), &end, 10);
      if (end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr, "ctfsck: bad --pool-pages value: %s\n",
                     arg.c_str());
        return kExitUsage;
      }
      cli.pool_pages = static_cast<size_t>(n);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "ctfsck: unknown option %s\n", arg.c_str());
      PrintHelp(stderr);
      return kExitUsage;
    } else {
      args.push_back(std::move(arg));
    }
  }

  CheckOptions check_options;
  check_options.deep = cli.deep;
  check_options.checksums = cli.checksums;

  if (args.empty()) return SelfDemo(cli);

  const std::string& cmd = args[0];
  if (cmd != "tree" && cmd != "forest" && cmd != "wal" && cmd != "btree") {
    std::fprintf(stderr, "ctfsck: unknown subcommand %s\n", cmd.c_str());
    PrintHelp(stderr);
    return kExitUsage;
  }

  // File-based subcommands: distinguish "not there" (exit 3) from "there
  // but unreadable" (exit 4) up front.
  if (args.size() == 2 && ::access(args[1].c_str(), F_OK) != 0) {
    std::fprintf(stderr, "ctfsck: %s: no such file\n", args[1].c_str());
    return kExitMissing;
  }

  if (args[0] == "tree" && args.size() == 2) {
    RTreeChecker checker(args[1], check_options);
    return RunChecker(&checker, cli);
  }
  if (args[0] == "forest" && args.size() == 3) {
    BufferPool pool(cli.pool_pages);
    ForestChecker checker(args[1], args[2], &pool, check_options);
    return RunChecker(&checker, cli);
  }
  if (args[0] == "wal" && args.size() == 2) {
    WalChecker checker(args[1]);
    return RunChecker(&checker, cli);
  }
  if (args[0] == "btree" && args.size() == 2) {
    BTreeChecker checker(args[1], check_options);
    return RunChecker(&checker, cli);
  }

  PrintHelp(stderr);
  return kExitUsage;
}
