// ctsql: an interactive (or piped) SQL shell over a Cubetree warehouse —
// the "clean and transparent SQL interface" the paper's Datablade exposed
// through IUS. On startup it generates TPC-D data, materializes the
// paper's view configuration into a forest, and then answers slice
// queries typed one per line.
//
// Usage:  ./build/examples/ctsql [scale_factor]   (reads queries on stdin)
//
//   ctsql> SELECT partkey, SUM(quantity) FROM sales
//          WHERE suppkey = 3 GROUP BY partkey
//   ctsql> SELECT custkey, SUM(quantity) FROM sales
//          WHERE partkey BETWEEN 10 AND 20 GROUP BY custkey
//   ctsql> \plan SELECT ...     (show the access path, not the rows)
//   ctsql> \trace               (show the last query's span tree)
//   ctsql> \workload            (live workload profile of this session)
//   ctsql> \quit

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "engine/query_parser.h"
#include "engine/warehouse.h"
#include "obs/trace.h"
#include "obs/workload.h"

using namespace cubetree;

namespace {

// Strict scale-factor parse: the whole argument must be a positive number.
// A typo'd argument silently becoming SF=0 would "succeed" with an empty
// warehouse, so reject garbage loudly instead (exit 2, usage-error style).
double ParseScaleFactor(const char* arg) {
  char* end = nullptr;
  const double value = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || value <= 0) {
    std::fprintf(stderr, "ctsql: invalid scale factor '%s' (want a positive "
                 "number, e.g. 0.01)\n", arg);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  WarehouseOptions options;
  options.scale_factor = argc > 1 ? ParseScaleFactor(argv[1]) : 0.01;
  options.dir = "ctsql_data";
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  if (ec) {
    std::fprintf(stderr, "ctsql: cannot clear %s: %s\n", options.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // Trace every query so \trace always has something to show; CUBETREE_TRACE
  // / CUBETREE_SLOW_QUERY_US (applied when Instance() first runs) can
  // further arm the slow-query log.
  obs::Tracer::Instance().Enable(true);
  // Live workload profiler behind \workload: the engine feeds it a record
  // per query (alongside CUBETREE_QUERY_LOG when that env var is set).
  obs::WorkloadProfiler profiler;
  obs::WorkloadProfiler::SetDefault(&profiler);

  std::printf("ctsql: loading TPC-D at SF=%.3f...\n", options.scale_factor);
  auto warehouse_result = Warehouse::Create(options);
  if (!warehouse_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 warehouse_result.status().ToString().c_str());
    return 1;
  }
  auto warehouse = std::move(warehouse_result).value();
  auto load = warehouse->LoadCubetrees();
  if (!load.ok()) {
    std::fprintf(stderr, "%s\n", load.status().ToString().c_str());
    return 1;
  }
  const CubeSchema& schema = warehouse->schema();
  std::printf("ready: table `sales` with attributes partkey(1..%u), "
              "suppkey(1..%u), custkey(1..%u), measure `quantity`.\n",
              schema.attr_domains[0], schema.attr_domains[1],
              schema.attr_domains[2]);
  std::printf("Predicates: '=' and BETWEEN. \\plan prefix shows the access "
              "path. \\trace shows the last query's spans. \\workload "
              "profiles the session. \\quit exits.\n\n");

  std::string line;
  while (true) {
    std::printf("ctsql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\trace") {
      auto last = obs::Tracer::Instance().LastTrace();
      if (last == nullptr) {
        std::printf("no trace yet: run a query first.\n");
      } else {
        std::printf("%s", last->DebugString().c_str());
      }
      continue;
    }
    if (line == "\\workload") {
      if (profiler.records() == 0) {
        std::printf("no queries profiled yet: run a query first.\n");
      } else {
        std::fputs(profiler.ReportText().c_str(), stdout);
      }
      continue;
    }
    bool plan_only = false;
    if (line.rfind("\\plan ", 0) == 0) {
      plan_only = true;
      line = line.substr(6);
    }
    obs::QueryProfile profile;
    Timer timer;
    {
      // One trace covers parse + execute; the engine's own TraceScope
      // nests inside it, so \trace shows a "parse" phase too.
      obs::TraceScope trace("ctsql.query", nullptr);
      auto parsed = [&] {
        obs::Span parse_span("parse");
        return ParseSliceQuery(line, schema);
      }();
      if (!parsed.ok()) {
        std::printf("error: %s\n", parsed.status().ToString().c_str());
        continue;
      }
      auto result = warehouse->cubetrees()->Execute(parsed->query, &profile);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      const double ms = timer.ElapsedSeconds() * 1000;
      if (plan_only) {
        std::printf("plan: %s  (%llu tuples examined, %llu pages)\n",
                    profile.plan.c_str(),
                    static_cast<unsigned long long>(profile.points_examined),
                    static_cast<unsigned long long>(profile.internal_pages +
                                                    profile.leaf_pages));
        continue;
      }
      result->SortRows();
      // Header.
      for (uint32_t attr : result->group_attrs) {
        std::printf("%-10s ", schema.attr_names[attr].c_str());
      }
      switch (parsed->fn) {
        case AggFn::kSum:
          std::printf("%-12s\n", "sum");
          break;
        case AggFn::kCount:
          std::printf("%-12s\n", "count");
          break;
        case AggFn::kAvg:
          std::printf("%-12s\n", "avg");
          break;
      }
      const size_t limit = 20;
      for (size_t i = 0; i < result->rows.size() && i < limit; ++i) {
        const ResultRow& row = result->rows[i];
        for (Coord c : row.group) std::printf("%-10u ", c);
        switch (parsed->fn) {
          case AggFn::kSum:
            std::printf("%-12lld\n", static_cast<long long>(row.agg.sum));
            break;
          case AggFn::kCount:
            std::printf("%-12u\n", row.agg.count);
            break;
          case AggFn::kAvg:
            std::printf("%-12.2f\n", row.agg.Avg());
            break;
        }
      }
      if (result->rows.size() > limit) {
        std::printf("... (%zu rows)\n", result->rows.size());
      }
      std::printf("%zu row(s) in %.2f ms  [%s]\n\n", result->rows.size(), ms,
                  profile.plan.c_str());
    }
  }
  obs::WorkloadProfiler::SetDefault(nullptr);
  std::printf("\nbye.\n");
  return 0;
}
