// Google-benchmark microbenchmarks of the core operations: packed R-tree
// bulk load (the paper reports a 6 GB/hour packing rate on 1997 hardware),
// range search, merge-pack, the cube builder's sort-based view
// computation, B-tree insert/lookup/bulk-build and the external sorter
// (by a 64-bit key, and over the load's view records).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "btree/btree.h"
#include "common/coding.h"
#include "common/rng.h"
#include "cubetree/merge_pack.h"
#include "olap/cube_builder.h"
#include "rtree/packed_rtree.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "tpcd/dbgen.h"

namespace cubetree {
namespace {

const char* kDir = "ctbench_micro";

void MakeBenchDir(const char* dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir, ec.message().c_str());
    std::exit(1);
  }
}

/// n unique points of one view of `arity` (1..3) in a 3-d tree, sorted in
/// pack order; coordinates at or beyond the arity are 0.
std::vector<PointRecord> MakeSortedPoints(uint32_t n, uint8_t arity = 3) {
  std::vector<PointRecord> points;
  points.reserve(n);
  Rng rng(11);
  for (uint32_t i = 0; i < n; ++i) {
    PointRecord rec;
    rec.view_id = 1;
    for (uint8_t d = 0; d + 1 < arity; ++d) {
      rec.coords[d] =
          1 + static_cast<Coord>(rng.Uniform(d == 0 ? 1u << 20 : 1u << 10));
    }
    // The most significant coordinate guarantees uniqueness.
    rec.coords[arity - 1] = static_cast<Coord>(i + 1);
    rec.agg = AggValue{static_cast<int64_t>(i), 1};
    points.push_back(rec);
  }
  std::sort(points.begin(), points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, 3) < 0;
            });
  return points;
}

// Args: points, view arity (1 or 3) in a 3-d tree. Arity 1 is the
// compressed-leaf case: 16-byte entries, 511 per leaf.
void BM_PackedRTreeBuild(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint8_t arity = static_cast<uint8_t>(state.range(1));
  auto points = MakeSortedPoints(n, arity);
  BufferPool pool(256);
  RTreeOptions options;
  options.dims = 3;
  std::optional<VectorPointSource> source;
  for (auto _ : state) {
    // Copying the points into a fresh source is set-up, not packing.
    state.PauseTiming();
    source.emplace(points);
    state.ResumeTiming();
    auto tree = PackedRTree::Build(std::string(kDir) + "/build.ctr",
                                   options, &pool, &*source,
                                   [arity](uint32_t) { return arity; });
    if (!tree.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * arity * sizeof(Coord));
}
BENCHMARK(BM_PackedRTreeBuild)
    ->ArgNames({"points", "arity"})
    ->ArgsProduct({{10000, 100000, 500000}, {1, 3}});

void BM_PackedRTreeSearch(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = 200000;
  auto points = MakeSortedPoints(n);
  BufferPool pool(4096);
  RTreeOptions options;
  options.dims = 3;
  VectorPointSource source(points);
  auto tree_result = PackedRTree::Build(std::string(kDir) + "/search.ctr",
                                        options, &pool, &source,
                                        [](uint32_t) { return 3; });
  if (!tree_result.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto tree = std::move(tree_result).value();
  Rng rng(5);
  uint64_t found = 0;
  for (auto _ : state) {
    Rect query = Rect::Full(3);
    // Slice on the most-significant pack dimension.
    const Coord z = 1 + static_cast<Coord>(rng.Uniform(n));
    query.lo[2] = z;
    query.hi[2] = z + 200;
    Status st = tree->Search(query, [&](const PointRecord&) { ++found; });
    if (!st.ok()) state.SkipWithError("search failed");
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRTreeSearch);

// Verify-on-read overhead: the same slice workload through a pool far
// smaller than the tree, so every search performs physical reads. Arg 1
// searches the tree as built (every page CRC-verified on read); Arg 0
// searches a copy whose .crc sidecar was removed (the pre-checksum open
// path — reads unverified). The wall-clock ratio is the checksum cost;
// the integrity design budgets ≤3% (DESIGN.md §13).
void BM_PackedRTreeSearchColdRead(benchmark::State& state) {
  MakeBenchDir(kDir);
  const bool verify = state.range(0) != 0;
  const uint32_t n = 200000;
  auto points = MakeSortedPoints(n);
  BufferPool pool(8);
  RTreeOptions options;
  options.dims = 3;
  const std::string verified_path = std::string(kDir) + "/cold.ctr";
  {
    VectorPointSource source(points);
    auto built = PackedRTree::Build(verified_path, options, &pool, &source,
                                    [](uint32_t) { return 3; });
    if (!built.ok()) {
      state.SkipWithError("build failed");
      return;
    }
  }
  std::string path = verified_path;
  if (!verify) {
    path = std::string(kDir) + "/cold_nocrc.ctr";
    std::error_code ec;
    std::filesystem::copy_file(
        verified_path, path, std::filesystem::copy_options::overwrite_existing,
        ec);
    if (ec || !RemoveChecksumSidecar(path).ok()) {
      state.SkipWithError("copy failed");
      return;
    }
  }
  auto opened = PackedRTree::Open(path, &pool);
  if (!opened.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto tree = std::move(opened).value();
  Rng rng(5);
  uint64_t found = 0;
  for (auto _ : state) {
    Rect query = Rect::Full(3);
    const Coord z = 1 + static_cast<Coord>(rng.Uniform(n));
    query.lo[2] = z;
    query.hi[2] = z + 2000;
    Status st = tree->Search(query, [&](const PointRecord&) { ++found; });
    if (!st.ok()) state.SkipWithError("search failed");
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRTreeSearchColdRead)->Arg(1)->Arg(0);

// Args: base points, view arity (1 or 3) in a 3-d tree. The delta is a
// 10% increment whose keys all coincide with base keys, so every delta
// point combines with an old one.
void BM_MergePack(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint8_t arity = static_cast<uint8_t>(state.range(1));
  auto base = MakeSortedPoints(n, arity);
  auto delta = MakeSortedPoints(n / 10, arity);
  BufferPool pool(256);
  RTreeOptions options;
  options.dims = 3;
  const auto arity_fn = [arity](uint32_t) { return arity; };
  VectorPointSource base_source(base);
  auto old_tree = std::move(
      PackedRTree::Build(std::string(kDir) + "/mp_base.ctr", options, &pool,
                         &base_source, arity_fn)
          .value());
  std::optional<VectorPointSource> delta_source;
  for (auto _ : state) {
    state.PauseTiming();
    delta_source.emplace(delta);
    state.ResumeTiming();
    auto merged = MergePack(old_tree.get(), &*delta_source,
                            std::string(kDir) + "/mp_out.ctr", options,
                            &pool, arity_fn);
    if (!merged.ok()) state.SkipWithError("merge failed");
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * (n + n / 10));
}
BENCHMARK(BM_MergePack)
    ->ArgNames({"points", "arity"})
    ->ArgsProduct({{100000}, {1, 3}});

// The refresh's shape: one arity-3 run of about a million points (the
// SF 0.1 top view holds 599,592) merged with a ~6% increment spread over
// the whole key range, half on stored keys and half new, into compressed
// leaves. Each iteration is one merge-pack of the old tree's leaves with
// the increment.
void BM_MergePackRefreshShape(benchmark::State& state) {
  MakeBenchDir(kDir);
  constexpr uint32_t kPoints = 1u << 20;
  const auto base = MakeSortedPoints(kPoints, 3);
  const auto pack_less = [](const PointRecord& a, const PointRecord& b) {
    return PackOrderCompare(a.coords, b.coords, 3) < 0;
  };
  Rng rng(23);
  std::vector<PointRecord> drawn;
  for (uint32_t i = 0; i < kPoints / 16; ++i) {
    PointRecord rec = base[rng.Uniform(kPoints)];
    // Odd draws move coordinate 0 past the base's domain: a new key.
    if (i % 2 == 1) rec.coords[0] += 1u << 20;
    rec.agg = AggValue{1, 1};
    drawn.push_back(rec);
  }
  std::sort(drawn.begin(), drawn.end(), pack_less);
  std::vector<PointRecord> delta;
  for (const PointRecord& rec : drawn) {
    if (!delta.empty() && !pack_less(delta.back(), rec)) {
      delta.back().agg.Merge(rec.agg);
    } else {
      delta.push_back(rec);
    }
  }
  BufferPool pool(256);
  RTreeOptions options;
  options.dims = 3;
  const auto arity_fn = [](uint32_t) { return uint8_t{3}; };
  VectorPointSource base_source(base);
  auto old_tree = std::move(
      PackedRTree::Build(std::string(kDir) + "/mp_refresh_base.ctr", options,
                         &pool, &base_source, arity_fn)
          .value());
  std::optional<VectorPointSource> delta_source;
  for (auto _ : state) {
    state.PauseTiming();
    delta_source.emplace(delta);
    state.ResumeTiming();
    auto merged = MergePack(old_tree.get(), &*delta_source,
                            std::string(kDir) + "/mp_refresh_out.ctr",
                            options, &pool, arity_fn);
    if (!merged.ok()) state.SkipWithError("merge failed");
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * (kPoints + delta.size()));
}
BENCHMARK(BM_MergePackRefreshShape)->Unit(benchmark::kMillisecond);

/// Re-opens one fact vector, generated once, for every pass of the builder.
class VectorFactProvider : public FactProvider {
 public:
  explicit VectorFactProvider(std::vector<FactTuple> facts)
      : facts_(std::move(facts)) {}

  Result<std::unique_ptr<FactSource>> Open() override {
    return std::unique_ptr<FactSource>(new VectorFactSource(&facts_));
  }

 private:
  std::vector<FactTuple> facts_;
};

// The load's view computation: the paper's six views plus the two top-view
// replicas, computed by CubeBuilder::ComputeAll from TPC-D base facts at
// SF 0.01 (about 60,000 facts), generated once before timing. Every view
// is sorted or pipelined from its smallest parent, in memory, on
// CUBETREE_REFRESH_THREADS workers, so the time is wall time.
void BM_CubeBuilderComputeAll(benchmark::State& state) {
  MakeBenchDir(kDir);
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = 0.01;
  tpcd::Generator generator(gen_options);
  const CubeSchema schema = generator.MakeBaseSchema();
  std::vector<FactTuple> facts;
  {
    auto provider = generator.BaseFacts();
    auto source = provider->Open();
    if (!source.ok()) {
      state.SkipWithError("fact generation failed");
      return;
    }
    const FactTuple* tuple = nullptr;
    while ((*source)->Next(&tuple).ok() && tuple != nullptr) {
      facts.push_back(*tuple);
    }
  }
  const size_t num_facts = facts.size();
  VectorFactProvider provider(std::move(facts));
  const std::vector<ViewDef> views = bench::PaperViews(/*with_replicas=*/true);
  CubeBuilder::Options options;
  options.temp_dir = kDir;
  CubeBuilder builder(schema, options);
  for (auto _ : state) {
    auto computed = builder.ComputeAll(views, &provider, "micro_cube");
    if (!computed.ok()) {
      state.SkipWithError("compute failed");
      break;
    }
    benchmark::DoNotOptimize((*computed)->total_rows());
  }
  state.SetItemsProcessed(state.iterations() * num_facts);
}
BENCHMARK(BM_CubeBuilderComputeAll)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BTreeInsertRandom(benchmark::State& state) {
  MakeBenchDir(kDir);
  for (auto _ : state) {
    state.PauseTiming();
    BufferPool pool(1024);
    BTreeOptions options;
    options.key_parts = 3;
    options.value_size = 12;
    auto tree = std::move(
        BPlusTree::Create(std::string(kDir) + "/bt.idx", options, &pool)
            .value());
    Rng rng(7);
    char value[12] = {0};
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      uint32_t key[3] = {static_cast<uint32_t>(rng.Next()),
                         static_cast<uint32_t>(rng.Next()),
                         static_cast<uint32_t>(i)};
      Status st = tree->Insert(key, value);
      if (!st.ok()) state.SkipWithError("insert failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertRandom)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  MakeBenchDir(kDir);
  BufferPool pool(4096);
  BTreeOptions options;
  options.key_parts = 1;
  options.value_size = 8;
  auto tree = std::move(
      BPlusTree::Create(std::string(kDir) + "/btl.idx", options, &pool)
          .value());
  char value[8] = {0};
  const uint32_t n = 200000;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key[1] = {i * 2 + 1};
    Status st = tree->Insert(key, value);
    if (!st.ok()) {
      // A dropped error here would make the lookup loop silently measure a
      // partially-populated tree.
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  Rng rng(9);
  char out[8];
  for (auto _ : state) {
    uint32_t key[1] = {static_cast<uint32_t>(rng.Uniform(2 * n))};
    auto found = tree->Lookup(key, out);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

/// The records BM_ExternalSort sorts.
enum class SortInput {
  /// 24-byte records keyed by a random leading 64-bit field.
  kU64Key,
  /// Arity-3 view records (three 4-byte coordinates, then the 12-byte
  /// aggregate) over TPC-D SF 0.1's partkey, suppkey and custkey domains,
  /// sorted in pack order: the load's sort of the top view.
  kViewArity3,
};

// Args: records, sort budget in bytes. The view-record cases sort 599,592
// records, SF 0.1's fact count, once at the 1.6 MiB budget a load at that
// scale factor sorts with (it spills and merges) and once at 16 MiB (in
// memory). Each iteration adds every record, finishes and drains the sort.
void BM_ExternalSort(benchmark::State& state, SortInput input) {
  MakeBenchDir(kDir);
  const size_t n = static_cast<size_t>(state.range(0));
  const bool view = input == SortInput::kViewArity3;
  const size_t record_size = view ? ViewRecordBytes(3) : 24;
  std::vector<char> records(n * record_size, 0);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    char* record = records.data() + i * record_size;
    if (view) {
      const Coord coords[3] = {1 + static_cast<Coord>(rng.Uniform(20000)),
                               1 + static_cast<Coord>(rng.Uniform(1000)),
                               1 + static_cast<Coord>(rng.Uniform(15000))};
      EncodeViewRecord(record, coords, 3,
                       AggValue{static_cast<int64_t>(rng.Uniform(50)), 1});
    } else {
      EncodeFixed64(record, rng.Next());
    }
  }
  const std::vector<KeyField> key =
      view ? ViewRecordKey(3) : std::vector<KeyField>{KeyField{0, 8}};
  for (auto _ : state) {
    ExternalSorter::Options options;
    options.record_size = record_size;
    options.memory_budget_bytes = static_cast<size_t>(state.range(1));
    options.temp_dir = kDir;
    ExternalSorter sorter(options, key);
    for (size_t i = 0; i < n; ++i) {
      if (!sorter.Add(records.data() + i * record_size).ok()) {
        state.SkipWithError("add failed");
      }
    }
    auto stream = sorter.Finish();
    if (!stream.ok()) {
      state.SkipWithError("finish failed");
      continue;
    }
    const char* rec = nullptr;
    uint64_t count = 0;
    do {
      if (!(*stream)->Next(&rec).ok()) break;
      ++count;
    } while (rec != nullptr);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * record_size);
}
BENCHMARK_CAPTURE(BM_ExternalSort, u64_key, SortInput::kU64Key)
    ->ArgNames({"records", "budget"})
    ->Args({100000, 1 << 20})
    ->Args({500000, 1 << 20});
BENCHMARK_CAPTURE(BM_ExternalSort, view_arity3, SortInput::kViewArity3)
    ->ArgNames({"records", "budget"})
    ->Args({599592, (16 << 20) / 10})
    ->Args({599592, 16 << 20})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cubetree

// Custom main instead of BENCHMARK_MAIN(): peels off --json=<path> before
// handing the remaining flags to google-benchmark, then embeds the
// library's own JSON report inside the shared bench envelope so this
// binary emits the same schema as the macro benches. The library insists
// on writing its file report itself, so we route it through a sidecar
// file (--benchmark_out) and fold that into the envelope afterwards.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> pass_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      pass_args.push_back(argv[i]);
    }
  }
  const std::string gbench_path = json_path + ".gbench";
  std::string out_flag = "--benchmark_out=" + gbench_path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    pass_args.push_back(out_flag.data());
    pass_args.push_back(format_flag.data());
  }
  int pass_argc = static_cast<int>(pass_args.size());
  benchmark::Initialize(&pass_argc, pass_args.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass_args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  cubetree::bench::BenchArgs args;
  args.json_path = json_path;
  cubetree::bench::JsonWriter json(args, "bench_micro");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string report;
  if (std::FILE* f = std::fopen(gbench_path.c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      report.append(buf, n);
    }
    std::fclose(f);
    std::remove(gbench_path.c_str());
  }
  auto parsed = cubetree::obs::JsonValue::Parse(report);
  if (parsed.ok()) {
    json.results().Set("google_benchmark", std::move(*parsed));
  } else {
    json.results().Set("google_benchmark_parse_error",
                       cubetree::obs::JsonValue(parsed.status().message()));
  }
  json.Finish();
  return 0;
}
