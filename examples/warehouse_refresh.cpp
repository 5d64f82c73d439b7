// Scenario: the nightly refresh cycle of a TPC-D-shaped warehouse — the
// workload the paper's introduction motivates. Loads the Cubetree
// configuration once, then simulates a week of daily 2% increments: each
// night the new facts are aggregated, sorted, and merge-packed into the
// forest, and a few dashboard queries run against the fresh data.
//
// If a previous run left a forest behind — say it was crashed mid-refresh
// via CUBETREE_FAILPOINTS='forest.manifest.rename=crash@2' — the program
// recovers it instead of reloading: the files the manifest does not name
// (half-built or retired generations) are reclaimed, and the dashboard
// queries run against whichever generation the crash left committed.
//
// If the volume fills mid-week (simulate with
// CUBETREE_FAILPOINTS='disk.preflight=enospc@2'), the refresh is refused
// with a typed, retriable StorageFull before any byte is written — the
// preflight has already swept dead files to make room — and the program
// stops while the committed generation stays queryable; rerun it once
// space is back. CUBETREE_DISK_RESERVE_BYTES sets the free-space floor the
// preflight protects (default 16 MiB).
//
// With --online, the dashboard does not wait for the nightly window:
// reader threads keep querying (each under a 50 ms deadline) while every
// merge-pack runs. Each query pins one committed forest generation, so it
// sees entirely-pre- or entirely-post-refresh data — never a mix — and
// the files of replaced generations are reclaimed only after the last
// query pinning them finishes.
//
// Build & run:
//   ./build/examples/warehouse_refresh [scale_factor] [--online] [--stats]
//                                      [--stats-format=<text|json|prometheus>]
//                                      [--trace=<path>]
//
// --stats dumps the process-wide metrics registry (query latency, buffer
// pool hit rates, sorter spills, refresh publish latency, ...) on exit;
// --stats-format selects text (default), json, or the Prometheus text
// exposition. Set CUBETREE_QUERY_LOG=<path> to also write one JSONL record
// per dashboard query (analyze with ctstat).
// --trace=<path> records every refresh and query as a span tree and writes
// the whole ring as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing) on exit.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/query_context.h"
#include "common/timer.h"
#include "engine/warehouse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scrub/scrubber.h"
#include "storage/page_manager.h"

using namespace cubetree;

namespace {

/// Reopen a crashed store: crash-consistent recovery plus a dashboard
/// round to prove the forest is serving again.
int RecoverAndQuery(Warehouse* warehouse) {
  std::printf("Found an existing forest — recovering instead of "
              "reloading...\n");
  ForestRecoveryReport report;
  auto recovered = warehouse->RecoverCubetrees(0, &report);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToString().c_str());
  std::printf("  recovered in %.3fs wall; forest = %.1f MiB, %llu points\n",
              recovered->wall_seconds,
              warehouse->cubetrees()->StorageBytes() / 1048576.0,
              static_cast<unsigned long long>(
                  warehouse->cubetrees()->forest()->AcquireSnapshot()
                      .TotalPoints()));
  SliceQueryGenerator gen = warehouse->MakeQueryGenerator(99);
  uint64_t rows = 0;
  for (int q = 0; q < 25; ++q) {
    SliceQuery query = gen.UniformOverLattice(
        warehouse->lattice(), /*exclude_unbound=*/true,
        /*skip_none_node=*/true);
    auto result = warehouse->cubetrees()->Execute(query, nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    rows += result->rows.size();
  }
  std::printf("  25 dashboard queries answered (%llu rows) — rerun after "
              "'rm -rf warehouse_refresh_data' for a fresh week\n",
              static_cast<unsigned long long>(rows));
  return 0;
}

/// --online: a week of refreshes with the dashboard never pausing. Reader
/// threads execute deadlined queries continuously; each night's
/// merge-pack commits a new generation underneath them.
int OnlineWeek(Warehouse* warehouse) {
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> missed_deadline{0};
  std::atomic<uint64_t> failed{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SliceQueryGenerator gen = warehouse->MakeQueryGenerator(1000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        SliceQuery query = gen.UniformOverLattice(
            warehouse->lattice(), /*exclude_unbound=*/true,
            /*skip_none_node=*/true);
        QueryContext ctx =
            QueryContext::WithTimeout(std::chrono::milliseconds(50));
        auto result = warehouse->cubetrees()->Execute(query, nullptr, &ctx);
        if (result.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().IsDeadlineExceeded()) {
          missed_deadline.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  int exit_code = 0;
  for (uint32_t day = 0; day < 7 && exit_code == 0; ++day) {
    const uint64_t before = answered.load(std::memory_order_relaxed);
    auto update = warehouse->UpdateCubetrees(day);
    if (!update.ok()) {
      std::fprintf(stderr, "day %u: %s\n", day + 1,
                   update.status().ToString().c_str());
      exit_code = 1;
      break;
    }
    const ForestGcStats gc = warehouse->cubetrees()->forest()->GcStats();
    std::printf(
        "day %u: merge-pack %.3fs wall with %llu dashboard queries served "
        "during it; generation %llu live, %llu retired file(s) awaiting "
        "readers, %llu reclaimed so far\n",
        day + 1, update->wall_seconds,
        static_cast<unsigned long long>(
            answered.load(std::memory_order_relaxed) - before),
        static_cast<unsigned long long>(gc.live_epoch),
        static_cast<unsigned long long>(gc.unreclaimed_files),
        static_cast<unsigned long long>(gc.reclaimed_files));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const ForestGcStats gc = warehouse->cubetrees()->forest()->GcStats();
  std::printf(
      "\nonline week done: %llu queries answered, %llu missed their 50ms "
      "deadline, %llu failed; %llu generation file(s) reclaimed, %llu still "
      "pinned\n",
      static_cast<unsigned long long>(answered.load()),
      static_cast<unsigned long long>(missed_deadline.load()),
      static_cast<unsigned long long>(failed.load()),
      static_cast<unsigned long long>(gc.reclaimed_files),
      static_cast<unsigned long long>(gc.unreclaimed_files));
  return failed.load() == 0 ? exit_code : 1;
}

}  // namespace

// Dumps the metrics registry on every exit path once --stats armed it.
// --stats-format selects the rendering: text (default), json, or
// prometheus (scrape-ready text exposition).
struct StatsDumper {
  bool enabled = false;
  std::string format = "text";
  ~StatsDumper() {
    if (!enabled) return;
    auto& registry = obs::MetricsRegistry::Instance();
    if (format == "json") {
      std::printf("\n%s\n", registry.DumpJson(2).c_str());
    } else if (format == "prometheus") {
      std::printf("\n%s", registry.DumpPrometheus().c_str());
    } else {
      std::printf("\n%s", registry.DumpText().c_str());
    }
  }
};

// Writes the tracer's whole ring as one Chrome trace-event file on every
// exit path once --trace=<path> armed it.
struct TraceDumper {
  std::string path;
  ~TraceDumper() {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
      return;
    }
    out << obs::Tracer::Instance().ExportAllJson().Dump(2) << "\n";
    std::printf("trace written to %s\n", path.c_str());
  }
};

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  WarehouseOptions options;
  StatsDumper stats;
  TraceDumper trace;
  bool online = false;
  double scale_factor = 0.02;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--online") == 0) {
      online = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats.enabled = true;
    } else if (std::strncmp(argv[i], "--stats-format=", 15) == 0) {
      stats.enabled = true;
      stats.format = argv[i] + 15;
      if (stats.format != "text" && stats.format != "json" &&
          stats.format != "prometheus") {
        std::fprintf(stderr,
                     "warehouse_refresh: --stats-format wants text, json or "
                     "prometheus\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace.path = argv[i] + 8;
      if (trace.path.empty()) {
        std::fprintf(stderr, "warehouse_refresh: --trace needs a path\n");
        return 2;
      }
      obs::Tracer::Instance().Enable(true);
    } else {
      // Positional scale factor: the whole argument must parse as a
      // positive number (a typo becoming SF=0 would silently load an
      // empty warehouse).
      char* end = nullptr;
      scale_factor = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' || scale_factor <= 0) {
        std::fprintf(stderr,
                     "warehouse_refresh: invalid argument '%s' (want "
                     "--online, --stats, --stats-format=<f>, --trace=<path> "
                     "or a positive scale factor)\n",
                     argv[i]);
        return 2;
      }
    }
  }
  options.scale_factor = scale_factor;
  options.dir = "warehouse_refresh_data";
  options.increment_fraction = 0.02;  // Daily 2% instead of the bench 10%.
  const bool resume = FileExists(options.dir + "/cbt.manifest");
  if (!resume) {
    // No committed forest to resume: clear any stale partial state.
    std::error_code ec;
    std::filesystem::remove_all(options.dir, ec);
    if (ec) {
      std::fprintf(stderr, "warehouse_refresh: cannot clear %s: %s\n",
                   options.dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  auto warehouse_result = Warehouse::Create(options);
  if (!warehouse_result.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 warehouse_result.status().ToString().c_str());
    return 1;
  }
  auto warehouse = std::move(warehouse_result).value();
  if (resume) return RecoverAndQuery(warehouse.get());

  std::printf("Initial load: %llu facts into %zu views "
              "(+%zu replicas)...\n",
              static_cast<unsigned long long>(
                  warehouse->generator().NumBaseLineitems()),
              warehouse->selected_views().size(),
              warehouse->cubetree_views().size() -
                  warehouse->selected_views().size());
  auto load = warehouse->LoadCubetrees();
  if (!load.ok()) {
    std::fprintf(stderr, "load: %s\n", load.status().ToString().c_str());
    return 1;
  }
  std::printf("  loaded in %.2fs wall; forest = %.1f MiB, %llu points\n",
              load->TotalWallSeconds(),
              warehouse->cubetrees()->StorageBytes() / 1048576.0,
              static_cast<unsigned long long>(
                  warehouse->cubetrees()->forest()->AcquireSnapshot()
                      .TotalPoints()));

  // CUBETREE_SCRUB_ENABLE=1 turns on the background integrity scrubber:
  // it re-reads every page of the live generation between refreshes
  // (throttled by CUBETREE_SCRUB_RATE, paced by CUBETREE_SCRUB_INTERVAL_MS)
  // and repairs anything it quarantines from the surviving sort-order
  // replicas and superset views, through the cube builder the load uses.
  // It passes no facts: a view nothing covers stays quarantined.
  CubetreeEngine* engine = warehouse->cubetrees();
  const CubeBuilder::Options build =
      warehouse->BuilderOptions(warehouse->cubetree_io());
  std::unique_ptr<Scrubber> scrubber =
      Scrubber::CreateFromEnv(engine->forest(), [engine, build] {
        return engine->Repair(nullptr, build);
      });
  if (scrubber != nullptr) {
    scrubber->Start();
    std::printf("  background scrubber running (CUBETREE_SCRUB_*)\n");
  }

  if (online) {
    const int rc = OnlineWeek(warehouse.get());
    if (rc != 0) return rc;
  } else {
    SliceQueryGenerator gen = warehouse->MakeQueryGenerator(99);
    for (uint32_t day = 0; day < 7; ++day) {
      auto update = warehouse->UpdateCubetrees(day);
      if (!update.ok()) {
        std::fprintf(stderr, "day %u: %s\n", day + 1,
                     update.status().ToString().c_str());
        return 1;
      }
      // Morning dashboard: a few slices over the fresh data.
      Timer timer;
      uint64_t rows = 0;
      for (int q = 0; q < 25; ++q) {
        SliceQuery query = gen.UniformOverLattice(
            warehouse->lattice(), /*exclude_unbound=*/true,
            /*skip_none_node=*/true);
        auto result = warehouse->cubetrees()->Execute(query, nullptr);
        if (!result.ok()) return 1;
        rows += result->rows.size();
      }
      std::printf("day %u: merge-pack %.3fs wall (%llu seq / %llu rand "
                  "page writes), 25 queries in %.3fs (%llu rows)\n",
                  day + 1, update->wall_seconds,
                  static_cast<unsigned long long>(
                      update->io.sequential_writes),
                  static_cast<unsigned long long>(update->io.random_writes),
                  timer.ElapsedSeconds(),
                  static_cast<unsigned long long>(rows));
    }
  }

  std::printf("\nafter a week: forest = %.1f MiB, %llu points — no "
              "down-time window needed beyond each merge-pack\n",
              warehouse->cubetrees()->StorageBytes() / 1048576.0,
              static_cast<unsigned long long>(
                  warehouse->cubetrees()->forest()->AcquireSnapshot()
                      .TotalPoints()));
  return 0;
}
