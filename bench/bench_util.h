#ifndef CUBETREE_BENCH_BENCH_UTIL_H_
#define CUBETREE_BENCH_BENCH_UTIL_H_

#include <climits>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/status.h"
#include "engine/warehouse.h"
#include "obs/trace.h"
#include "olap/cube_builder.h"
#include "tpcd/dbgen.h"

namespace cubetree {
namespace bench {

/// Strict numeric flag parsing: the whole value must parse, so --sf=abc
/// fails loudly instead of silently becoming 0 (atof/atoi) and running a
/// degenerate benchmark that still "reports results". Each returns false
/// on malformed input (including empty values and trailing junk).
inline bool ParseDoubleArg(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

inline bool ParseIntArg(const char* text, int* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

inline bool ParseUint64Arg(const char* text, uint64_t* out) {
  if (text == nullptr) return false;
  const std::optional<uint64_t> v = ParseUint(text);
  if (!v.has_value()) return false;
  *out = *v;
  return true;
}

/// Command-line/environment configuration shared by the experiment
/// binaries. Each accepts:
///   --sf=<double>        scale factor (default 0.05; paper = 1.0)
///   --queries=<int>      queries per lattice view (default 100, as paper)
///   --dir=<path>         working directory (default ./ctbench_data)
///   --seed=<uint64>
///   --json=<path>        also emit machine-readable results (JsonWriter)
///   --trace=<path>       record span traces; written as Chrome trace-event
///                        JSON (Perfetto / chrome://tracing) on Finish/exit
///   --replicas=<0|1>     materialize the top view's sort-order replicas
///                        (default 1, the paper's configuration; 0 exposes
///                        replica misses to the workload profiler)
struct BenchArgs {
  double sf = 0.05;
  int queries = 100;
  std::string dir = "ctbench_data";
  uint64_t seed = 19980601;
  std::string json_path;   // Empty = no JSON output.
  std::string trace_path;  // Empty = tracing stays disabled.
  bool replicas = true;

  static BenchArgs Parse(int argc, char** argv) {
    InitLogLevelFromEnv();
    BenchArgs args;
    auto malformed = [](const char* flag, const char* value) {
      std::fprintf(stderr, "malformed value for %s: '%s'\n", flag, value);
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--sf=", 5) == 0) {
        if (!ParseDoubleArg(a + 5, &args.sf)) malformed("--sf", a + 5);
      } else if (std::strncmp(a, "--queries=", 10) == 0) {
        if (!ParseIntArg(a + 10, &args.queries)) {
          malformed("--queries", a + 10);
        }
      } else if (std::strncmp(a, "--dir=", 6) == 0) {
        args.dir = a + 6;
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        if (!ParseUint64Arg(a + 7, &args.seed)) malformed("--seed", a + 7);
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        args.json_path = a + 7;
      } else if (std::strncmp(a, "--trace=", 8) == 0) {
        args.trace_path = a + 8;
        if (args.trace_path.empty()) malformed("--trace", a + 8);
      } else if (std::strncmp(a, "--replicas=", 11) == 0) {
        int replicas = -1;
        if (!ParseIntArg(a + 11, &replicas) ||
            (replicas != 0 && replicas != 1)) {
          malformed("--replicas", a + 11);
        }
        args.replicas = replicas != 0;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", a);
        std::exit(2);
      }
    }
    return args;
  }

  WarehouseOptions ToWarehouseOptions(const std::string& subdir) const {
    WarehouseOptions options;
    options.scale_factor = sf;
    options.seed = seed;
    options.dir = dir + "_" + subdir;
    options.replicate_top_view = replicas;
    return options;
  }
};

/// Aborts the benchmark with a readable message on error.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void PrintHeader(const char* title, const BenchArgs& args) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  std::printf("scale factor %.3f (paper: 1.0), seed %llu\n", args.sf,
              static_cast<unsigned long long>(args.seed));
  std::printf("==================================================\n");
}

inline std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  }
  return buf;
}

inline std::string HumanSeconds(double s) {
  char buf[64];
  if (s >= 3600) {
    std::snprintf(buf, sizeof(buf), "%dh %02dm %02ds",
                  static_cast<int>(s / 3600),
                  static_cast<int>(s / 60) % 60, static_cast<int>(s) % 60);
  } else if (s >= 60) {
    std::snprintf(buf, sizeof(buf), "%dm %02ds", static_cast<int>(s / 60),
                  static_cast<int>(s) % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  }
  return buf;
}

/// The paper's selected view set (ids = attribute masks), optionally with
/// the two top-view replicas of the Cubetree configuration.
inline std::vector<ViewDef> PaperViews(bool with_replicas) {
  auto mk = [](uint32_t id, std::vector<uint32_t> attrs) {
    ViewDef v;
    v.id = id;
    v.attrs = std::move(attrs);
    return v;
  };
  std::vector<ViewDef> views = {
      mk(0b111, {0, 1, 2}), mk(0b011, {0, 1}), mk(0b100, {2}),
      mk(0b010, {1}),       mk(0b001, {0}),    mk(0b000, {}),
  };
  if (with_replicas) {
    views.push_back(mk(1000, {1, 2, 0}));  // ~ I{partkey,custkey,suppkey}
    views.push_back(mk(1001, {2, 0, 1}));  // ~ I{suppkey,partkey,custkey}
  }
  return views;
}

/// Generates TPC-D data at args.sf and computes the given views' sorted
/// aggregate spools (shared setup of the ablation benches).
struct TpcdViewData {
  std::unique_ptr<tpcd::Generator> generator;
  CubeSchema schema;
  std::unique_ptr<ComputedViews> data;
};

inline TpcdViewData ComputeTpcdViews(const BenchArgs& args,
                                     const std::vector<ViewDef>& views,
                                     const std::string& subdir,
                                     std::shared_ptr<IoStats> io = nullptr) {
  const std::string dir = args.dir + "_" + subdir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    std::exit(1);
  }
  TpcdViewData out;
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = args.sf;
  gen_options.seed = args.seed;
  out.generator = std::make_unique<tpcd::Generator>(gen_options);
  out.schema = out.generator->MakeBaseSchema();
  CubeBuilder::Options build_options;
  build_options.temp_dir = dir;
  build_options.sort_budget_bytes = std::max<size_t>(
      256u << 10, static_cast<size_t>((16u << 20) * args.sf));
  build_options.io_stats = std::move(io);
  CubeBuilder builder(out.schema, build_options);
  auto facts = out.generator->BaseFacts();
  out.data =
      CheckOk(builder.ComputeAll(views, facts.get(), subdir), "compute");
  return out;
}

/// Buffer-pool pages preserving the paper's memory:data ratio at args.sf.
inline size_t ScaledPoolPages(const BenchArgs& args) {
  return std::max<size_t>(64, static_cast<size_t>(4096 * args.sf));
}

/// Name of a lattice node like "partkey,suppkey".
inline std::string NodeName(const CubeSchema& schema,
                            const std::vector<uint32_t>& attrs) {
  if (attrs.empty()) return "none";
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.attr_names[attrs[i]];
  }
  return out;
}

}  // namespace bench
}  // namespace cubetree

#endif  // CUBETREE_BENCH_BENCH_UTIL_H_
