// ctbench: the repository benchmark. One invocation runs one named workload
// against the public Warehouse / CubetreeEngine API for a fixed number of
// seconds, checks sampled answers against a brute-force oracle over the
// generator's raw facts, and prints every end-to-end metric (with --trace,
// every per-layer metric instead) as
//   metric=<name> workload=<w> value=<v> unit=<u> n=<samples>
// followed, as the last line of standard output, by one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit codes: 0 done, 1 oracle mismatch or failed set-up, 2 bad flag.
// bench/suite/README.md documents the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/suite/layers.h"
#include "bench/suite/oracle.h"
#include "common/logging.h"
#include "common/query_context.h"
#include "engine/warehouse.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace cubetree {
namespace suite {
namespace {

constexpr uint64_t kDefaultSeed = 19980601;
constexpr double kScaleFactor = 0.1;
/// Loads per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr int kOnlineReaders = 2;
/// Every kSampleStride-th timed query of a client keeps its answer for the
/// oracle, at most kSamplesPerWindow per client and window. Another
/// kFinalChecksPerNode queries per lattice node check the final state after
/// every reader has stopped.
constexpr uint64_t kSampleStride = 100;
constexpr size_t kSamplesPerWindow = 8;
constexpr size_t kFinalChecksPerNode = 21;
/// With --trace, every kKeepTraceStride-th folded query trace (and every
/// refresh trace) goes to the Chrome trace file.
constexpr uint64_t kKeepTraceStride = 256;

enum class Shape { kSlice, kRange };

/// A run is cut into equal time slices, one per refresh, each opened by its
/// refresh. What the queries do in a slice:
enum class Mode {
  /// An untimed pass over the list refills the pool; timed passes over the
  /// list then fill the slice, at least one.
  kWarmPasses,
  /// One timed pass over the list on the fresh, cold forest, then the
  /// client idles until the slice ends.
  kColdPass,
  /// kOnlineReaders readers query from the first slice to the last; a
  /// window is a whole slice.
  kOnline,
};

/// One named workload. bench/suite/README.md records why each exists.
struct Workload {
  const char* name;
  /// Buffer-pool pages; 0 keeps the paper's memory-to-data ratio (4096
  /// pages at SF 1, scaled with SF).
  size_t pool_pages;
  Shape shape;
  /// Queries per lattice node in the list the clients cycle through; a
  /// multiple of 21, so every node's query types get equal shares.
  size_t list_per_node;
  /// 10% increments applied per run.
  int refreshes;
  Mode mode;
};

constexpr Workload kWorkloads[] = {
    {"slice-paper", 0, Shape::kSlice, 2100, 5, Mode::kWarmPasses},
    {"range-hot", 8192, Shape::kRange, 210, 3, Mode::kWarmPasses},
    {"refresh-merge", 0, Shape::kSlice, 588, 10, Mode::kColdPass},
    {"refresh-online", 0, Shape::kSlice, 2100, 10, Mode::kOnline},
};

struct Flags {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  std::string trace_path;  // Non-empty: traced run, per-layer metrics.
  std::string json_path;
  std::string dir = "ctbench_data_suite";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "ctbench: %s\nusage: ctbench --workload=<name> [--seed=<u64>] "
               "[--seconds=<s>] [--trace=<trace.json>] [--json=<out.json>] "
               "[--dir=<work dir>]\nworkloads:",
               problem.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) Usage("malformed flag " + arg);
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) flags.workload = &w;
      }
      if (flags.workload == nullptr) Usage("unknown workload " + value);
    } else if (key == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        Usage("malformed --seed " + value);
      }
    } else if (key == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags.seconds > 0) ||
          flags.seconds > 3600) {
        Usage("malformed --seconds " + value);
      }
    } else if (key == "--trace" && !value.empty()) {
      flags.trace_path = value;
    } else if (key == "--json" && !value.empty()) {
      flags.json_path = value;
    } else if (key == "--dir" && !value.empty()) {
      flags.dir = value;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (flags.workload == nullptr) Usage("--workload is required");
  return flags;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

/// The faster quartile of one timing repeated within a run. Other work on
/// a shared machine only ever slows a repetition down, and it does so for
/// seconds at a time, so the faster quarter of the repetitions is the
/// steadiest reading of the code's own speed.
double FastQuartile(const std::vector<double>& durations) {
  return Percentile(durations, 25);
}

/// One of the suite's own spans around a public call: a plain start/end
/// record, never a TraceScope, so the program's traces stay roots.
struct BenchSpan {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t thread;
};

/// A timed query's answer, kept for the oracle. The snapshot the query
/// pinned held between first_state and last_state applied increments.
struct Sample {
  size_t query_index;
  size_t first_state;
  size_t last_state;
  QueryResult result;
};

/// Buffer-pool, integrity and I/O counters, for deltas around the windows.
struct StorageCounters {
  uint64_t evictions = 0;
  uint64_t pages_verified = 0;
  IoStats io;
};

/// Everything one query client accumulates.
struct Client {
  uint32_t id = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t timed = 0;
  /// Per window: the latency of every timed query, and the answers kept.
  std::vector<std::vector<double>> window_ns;
  std::vector<size_t> window_samples;
  /// Passes only (empty online): per list entry, its latency in every
  /// timed pass.
  std::vector<std::vector<double>> query_ns;
  std::vector<Sample> samples;
  QueryLayers layers;
  std::vector<std::shared_ptr<const obs::Trace>> kept_traces;
  std::vector<BenchSpan> spans;
};

class Bench {
 public:
  explicit Bench(Flags flags)
      : flags_(std::move(flags)), w_(*flags_.workload) {}

  int Run();

 private:
  bool traced() const { return !flags_.trace_path.empty(); }
  uint64_t SliceEnd(uint64_t run_start, int slice) const;
  bool Setup();
  std::vector<SliceQuery> MakeQueryList(uint64_t seed, size_t per_node) const;
  /// Runs queries_[index % size]; `window` < 0 means untimed.
  void RunQuery(Client* client, size_t index, int window);
  void Refresh(uint32_t increment);
  void RunPasses();
  void RunOnline();
  StorageCounters ReadStorageCounters() const;
  void AddStorageDelta(const StorageCounters& before);
  void CheckAnswers();
  double ProbeTraceOverhead();
  obs::JsonValue Report();
  void WriteTraceFile();

  Flags flags_;
  const Workload& w_;
  std::unique_ptr<Warehouse> warehouse_;
  CubetreeEngine* engine_ = nullptr;
  std::vector<double> setup_s_;
  uint64_t forest_pages_at_load_ = 0;
  std::vector<SliceQuery> queries_;
  std::vector<SliceQuery> final_checks_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;

  /// Increments applied so far, in order; readers load the count.
  std::vector<uint32_t> applied_;
  std::atomic<size_t> published_{0};
  std::vector<double> refresh_s_;
  std::vector<double> refresh_write_s_;    // Write side on the 1997 disk.
  std::vector<double> refresh_modeled_s_;  // Reads + writes on that disk.
  std::vector<double> refresh_bytes_written_;
  SpanFold refresh_layers_;
  /// The sorter spills only while loading: a 10% increment fits the sort
  /// budget, which scales with the data. So the sort layer is measured on
  /// the set-up loads.
  SpanFold load_layers_;
  std::vector<double> sort_runs_;
  std::vector<double> sort_bytes_;
  uint64_t last_refresh_trace_ = 0;
  std::vector<std::shared_ptr<const obs::Trace>> refresh_traces_;
  std::vector<BenchSpan> main_spans_;

  std::vector<Client> clients_;
  std::vector<double> window_s_;  // Duration of each window.
  StorageCounters storage_;       // Summed over the windows.
  double trace_overhead_ = 0;
  double peak_rss_mb_ = 0;
};

uint64_t Bench::SliceEnd(uint64_t run_start, int slice) const {
  return run_start + static_cast<uint64_t>(flags_.seconds * 1e9 *
                                           (slice + 1) / w_.refreshes);
}

bool Bench::Setup() {
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Counter* runs = registry.GetCounter("sorter.runs_spilled");
  obs::Counter* bytes = registry.GetCounter("sorter.bytes_spilled");
  WarehouseOptions options;
  options.scale_factor = kScaleFactor;
  options.seed = flags_.seed;
  options.dir = flags_.dir;
  if (w_.pool_pages != 0) {
    options.scale_memory_with_sf = false;
    options.buffer_pool_pages = w_.pool_pages;
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    warehouse_.reset();
    std::error_code ec;
    std::filesystem::remove_all(flags_.dir, ec);
    std::filesystem::create_directories(flags_.dir, ec);
    const uint64_t runs0 = runs->value();
    const uint64_t bytes0 = bytes->value();
    const uint64_t start = NowNs();
    ++attempted_;
    auto created = Warehouse::Create(options);
    Status status = created.status();
    if (status.ok()) {
      warehouse_ = std::move(created).value();
      // The load opens no trace of its own; with --trace this root collects
      // the sorter's spans.
      obs::TraceScope load_trace("bench.load",
                                 warehouse_->cubetree_io().get());
      status = warehouse_->LoadCubetrees().status();
    }
    const uint64_t end = NowNs();
    if (!status.ok()) {
      ++failed_;
      std::fprintf(stderr, "ctbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
    setup_s_.push_back(static_cast<double>(end - start) / 1e9);
    main_spans_.push_back({"bench.setup", start, end, 0});
    sort_runs_.push_back(static_cast<double>(runs->value() - runs0));
    sort_bytes_.push_back(static_cast<double>(bytes->value() - bytes0));
    if (traced()) {
      std::shared_ptr<const obs::Trace> trace =
          obs::Tracer::Instance().LastTrace();
      if (trace != nullptr && trace->name() == "bench.load") {
        load_layers_.Add(*trace);
      }
    }
  }
  engine_ = warehouse_->cubetrees();
  forest_pages_at_load_ = engine_->StorageBytes() / kPageSize;
  if (warehouse_->schema().num_attrs() != 3) {
    std::fprintf(stderr, "ctbench: expected the 3-attribute base schema\n");
    return false;
  }
  return true;
}

std::vector<SliceQuery> Bench::MakeQueryList(uint64_t seed,
                                            size_t per_node) const {
  std::vector<std::vector<uint32_t>> nodes;
  const CubeLattice& lattice = warehouse_->lattice();
  for (size_t i = 0; i < lattice.num_nodes(); ++i) {
    if (!lattice.node(i).attrs.empty()) nodes.push_back(lattice.node(i).attrs);
  }
  // The generator draws a query type (which attributes carry a predicate)
  // uniformly at random. Sorting its queries into one bucket per type and
  // taking equal shares keeps the type mix, and so the cost mix, the same
  // for every seed; only the predicate values vary.
  SliceQueryGenerator gen = warehouse_->MakeQueryGenerator(seed);
  std::vector<std::vector<std::vector<SliceQuery>>> buckets(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    const size_t types = (size_t{1} << nodes[n].size()) - 1;
    const size_t per_type = per_node / types;
    buckets[n].resize(types);
    for (size_t filled = 0; filled < types;) {
      SliceQuery query =
          w_.shape == Shape::kSlice
              ? gen.ForNode(nodes[n], /*exclude_unbound=*/true)
              : gen.ForNodeRange(nodes[n], 0.01, /*exclude_unbound=*/true);
      size_t type = 0;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        if (query.AttrConstrained(i)) type |= size_t{1} << i;
      }
      std::vector<SliceQuery>& bucket = buckets[n][type - 1];
      if (bucket.size() == per_type) continue;
      bucket.push_back(std::move(query));
      filled += bucket.size() == per_type;
    }
  }
  // Round-robin over nodes, and over each node's types, so that every
  // stretch of 21 rounds holds the full mix.
  std::vector<SliceQuery> list;
  for (size_t round = 0; round < per_node; ++round) {
    for (auto& types : buckets) {
      list.push_back(std::move(
          types[round % types.size()][round / types.size()]));
    }
  }
  return list;
}

void Bench::RunQuery(Client* client, size_t index, int window) {
  index %= queries_.size();
  const size_t first_state = published_.load(std::memory_order_acquire);
  QueryContext ctx;
  const uint64_t start = NowNs();
  Result<QueryResult> result =
      traced() ? engine_->Execute(queries_[index], nullptr, &ctx)
               : engine_->Execute(queries_[index], nullptr);
  const uint64_t end = NowNs();
  const size_t last_state = published_.load(std::memory_order_acquire);
  ++client->attempted;
  if (!result.ok()) {
    ++client->failed;
    return;
  }
  if (window < 0) return;
  const size_t w = static_cast<size_t>(window);
  if (client->window_ns.size() <= w) {
    client->window_ns.resize(w + 1);
    client->window_samples.resize(w + 1);
  }
  client->window_ns[w].push_back(static_cast<double>(end - start));
  if (!client->query_ns.empty()) {
    client->query_ns[index].push_back(static_cast<double>(end - start));
  }
  if (client->timed++ % kSampleStride == 0 &&
      client->window_samples[w] < kSamplesPerWindow) {
    ++client->window_samples[w];
    // An online reader may have pinned the epoch a refresh published just
    // before its counter moved, so it may see one more increment.
    client->samples.push_back(
        {index, first_state,
         w_.mode == Mode::kOnline ? last_state + 1 : last_state,
         std::move(result).value()});
  }
  if (!traced()) return;
  std::shared_ptr<const obs::Trace> trace = obs::Tracer::Instance().LastTrace();
  if (trace != nullptr && trace->id() == ctx.trace_id()) {
    client->layers.Add(*trace);
    if (client->layers.spans.ops % kKeepTraceStride == 1) {
      client->kept_traces.push_back(std::move(trace));
      client->spans.push_back({"bench.query", start, end, client->id});
    }
  }
}

void Bench::Refresh(uint32_t increment) {
  const IoStats io0 = *warehouse_->cubetree_io();
  const uint64_t start = NowNs();
  ++attempted_;
  const Status status = warehouse_->UpdateCubetrees(increment).status();
  const uint64_t end = NowNs();
  if (!status.ok()) {
    ++failed_;
    std::fprintf(stderr, "ctbench: refresh %u failed: %s\n", increment,
                 status.ToString().c_str());
    return;
  }
  applied_.push_back(increment);
  published_.store(applied_.size(), std::memory_order_release);
  main_spans_.push_back({"bench.refresh", start, end, 0});
  refresh_s_.push_back(static_cast<double>(end - start) / 1e9);
  // Readers never write, so the write side is the refresh's own even when
  // readers run beside it; the read side is shared with them.
  const IoStats io = *warehouse_->cubetree_io() - io0;
  const DiskModel& disk = warehouse_->options().disk;
  refresh_write_s_.push_back(disk.ModeledSeconds(
      IoStats(0, 0, io.sequential_writes, io.random_writes)));
  refresh_modeled_s_.push_back(disk.ModeledSeconds(io));
  refresh_bytes_written_.push_back(
      static_cast<double>(io.TotalWrites() * kPageSize));
  if (!traced()) return;
  // Readers publish into the same ring, so look for the newest refresh.
  std::shared_ptr<const obs::Trace> newest;
  for (const auto& trace : obs::Tracer::Instance().AllTraces()) {
    if (trace->name() == "refresh" && trace->id() > last_refresh_trace_) {
      newest = trace;
      last_refresh_trace_ = trace->id();
    }
  }
  if (newest != nullptr) {
    refresh_layers_.Add(*newest);
    refresh_traces_.push_back(std::move(newest));
  }
}

StorageCounters Bench::ReadStorageCounters() const {
  StorageCounters c;
  c.evictions = warehouse_->cubetree_pool()->stats().evictions;
  c.pages_verified = obs::MetricsRegistry::Instance()
                         .GetCounter("integrity.pages_verified")
                         ->value();
  c.io = *warehouse_->cubetree_io();
  return c;
}

void Bench::AddStorageDelta(const StorageCounters& before) {
  const StorageCounters now = ReadStorageCounters();
  storage_.evictions += now.evictions - before.evictions;
  storage_.pages_verified += now.pages_verified - before.pages_verified;
  storage_.io += now.io - before.io;
}

void Bench::RunPasses() {
  Client& client = clients_.emplace_back();
  client.query_ns.resize(queries_.size());
  const bool warm = w_.mode == Mode::kWarmPasses;
  const uint64_t run_start = NowNs();
  int pass = 0;
  for (int r = 0; r < w_.refreshes; ++r) {
    Refresh(static_cast<uint32_t>(r));
    if (warm) {
      for (size_t i = 0; i < queries_.size(); ++i) RunQuery(&client, i, -1);
    }
    const StorageCounters before = ReadStorageCounters();
    uint64_t pass_ns = 0;
    // Another warm pass only when it should end within the slice.
    do {
      const uint64_t start = NowNs();
      for (size_t i = 0; i < queries_.size(); ++i) RunQuery(&client, i, pass);
      pass_ns = NowNs() - start;
      window_s_.push_back(static_cast<double>(pass_ns) / 1e9);
      ++pass;
    } while (warm && NowNs() + pass_ns <= SliceEnd(run_start, r));
    AddStorageDelta(before);
    const uint64_t now = NowNs();
    if (now < SliceEnd(run_start, r)) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(SliceEnd(run_start, r) - now));
    }
  }
}

void Bench::RunOnline() {
  clients_.resize(kOnlineReaders);
  std::atomic<bool> stop{false};
  std::atomic<int> slice{0};
  const StorageCounters before = ReadStorageCounters();
  const uint64_t run_start = NowNs();
  std::vector<std::thread> readers;
  for (int k = 0; k < kOnlineReaders; ++k) {
    Client* client = &clients_[static_cast<size_t>(k)];
    client->id = static_cast<uint32_t>(k + 1);
    readers.emplace_back([this, client, k, &stop, &slice] {
      // Readers start at different points of the list.
      size_t cursor = static_cast<size_t>(k) * queries_.size() / kOnlineReaders;
      while (!stop.load(std::memory_order_relaxed)) {
        RunQuery(client, cursor++, slice.load(std::memory_order_relaxed));
      }
    });
  }
  uint64_t slice_start = run_start;
  for (int r = 0; r < w_.refreshes; ++r) {
    Refresh(static_cast<uint32_t>(r));
    const uint64_t slice_end = SliceEnd(run_start, r);
    const uint64_t now = NowNs();
    if (now < slice_end) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice_end - now));
    }
    const uint64_t end = NowNs();
    if (r + 1 < w_.refreshes) slice.store(r + 1, std::memory_order_relaxed);
    window_s_.push_back(static_cast<double>(end - slice_start) / 1e9);
    slice_start = end;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  // Queries still running when the last slice ended finish in it too.
  window_s_.back() += static_cast<double>(NowNs() - slice_start) / 1e9;
  AddStorageDelta(before);
}

void Bench::CheckAnswers() {
  Oracle oracle;
  tpcd::Generator& gen = warehouse_->generator();
  Status status = oracle.AddLayer(gen.BaseFacts().get());
  for (size_t i = 0; status.ok() && i < applied_.size(); ++i) {
    status = oracle.AddLayer(
        gen.IncrementFacts(warehouse_->options().increment_fraction,
                           applied_[i])
            .get());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "ctbench: oracle: %s\n", status.ToString().c_str());
    ++mismatches_;
    return;
  }
  auto check = [&](const SliceQuery& query, QueryResult result,
                   size_t first_state, size_t last_state) {
    ++checked_;
    result.SortRows();
    last_state = std::min(last_state, applied_.size());
    for (size_t state = first_state; state <= last_state; ++state) {
      if (oracle.Answer(query, state + 1).SameRowsAs(result)) return;
    }
    ++mismatches_;
    std::fprintf(stderr, "ctbench: MISMATCH %s (states %zu..%zu)\n",
                 query.ToString(warehouse_->schema()).c_str(), first_state,
                 last_state);
  };
  for (Client& client : clients_) {
    for (Sample& sample : client.samples) {
      check(queries_[sample.query_index], std::move(sample.result),
            sample.first_state, sample.last_state);
    }
  }
  for (const SliceQuery& query : final_checks_) {
    ++attempted_;
    Result<QueryResult> result = engine_->Execute(query, nullptr);
    if (!result.ok()) {
      ++failed_;
      continue;
    }
    check(query, std::move(result).value(), applied_.size(), applied_.size());
  }
}

double Bench::ProbeTraceOverhead() {
  std::vector<double> on_ns;
  std::vector<double> off_ns;
  obs::Tracer& tracer = obs::Tracer::Instance();
  // One pass over the list, the tracer on for every other query.
  for (size_t i = 0; i < queries_.size(); ++i) {
    const bool on = i % 2 == 0;
    tracer.Enable(on);
    const uint64_t start = NowNs();
    Result<QueryResult> result = engine_->Execute(queries_[i], nullptr);
    const uint64_t elapsed = NowNs() - start;
    ++attempted_;
    if (!result.ok()) {
      ++failed_;
      continue;
    }
    (on ? on_ns : off_ns).push_back(static_cast<double>(elapsed));
  }
  return Median(on_ns) / Median(off_ns) - 1;
}

int Bench::Run() {
  std::printf("ctbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              w_.name, static_cast<unsigned long long>(flags_.seed),
              flags_.seconds, traced() ? 1 : 0,
              std::thread::hardware_concurrency());
  if (traced()) obs::Tracer::Instance().Enable(true);
  if (!Setup()) return 1;
  // The workload seed drives the data and both query lists; the engine
  // only ever sees the generated facts and queries.
  queries_ = MakeQueryList(flags_.seed + 1, w_.list_per_node);
  final_checks_ = MakeQueryList(flags_.seed + 2, kFinalChecksPerNode);
  if (w_.mode == Mode::kOnline) {
    RunOnline();
  } else {
    RunPasses();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (traced()) trace_overhead_ = ProbeTraceOverhead();
  obs::Tracer::Instance().Enable(false);
  CheckAnswers();
  for (const Client& client : clients_) {
    attempted_ += client.attempted;
    failed_ += client.failed;
  }

  obs::JsonValue report = Report();
  if (!flags_.json_path.empty()) {
    std::ofstream out(flags_.json_path);
    out << report.Dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "ctbench: cannot write %s\n",
                   flags_.json_path.c_str());
    }
  }
  if (traced()) WriteTraceFile();
  warehouse_.reset();
  std::error_code ec;
  std::filesystem::remove_all(flags_.dir, ec);

  obs::JsonValue line = obs::JsonValue::MakeObject();
  line.Set("correct", *report.Find("correct"));
  line.Set("attempted", *report.Find("attempted"));
  line.Set("failed", *report.Find("failed"));
  obs::JsonValue& metrics = line.Set("metrics", obs::JsonValue::MakeObject());
  for (const auto& [name, metric] : report.Find("metrics")->members()) {
    obs::JsonValue& entry = metrics.Set(name, obs::JsonValue::MakeObject());
    entry.Set("value", *metric.Find("value"));
    entry.Set("unit", *metric.Find("unit"));
  }
  std::printf("%s\n", line.Dump(-1).c_str());
  std::fflush(stdout);
  return mismatches_ == 0 ? 0 : 1;
}

obs::JsonValue Bench::Report() {
  obs::JsonValue report = obs::JsonValue::MakeObject();
  report.Set("suite", obs::JsonValue("ctbench"));
  report.Set("workload", obs::JsonValue(w_.name));
  report.Set("seed", obs::JsonValue(flags_.seed));
  report.Set("seconds", obs::JsonValue(flags_.seconds));
  report.Set("trace", obs::JsonValue(traced()));

  const WarehouseOptions& options = warehouse_->options();
  obs::JsonValue& config = report.Set("config", obs::JsonValue::MakeObject());
  config.Set("scale_factor", obs::JsonValue(kScaleFactor));
  config.Set("pool_pages",
             obs::JsonValue(static_cast<uint64_t>(options.buffer_pool_pages)));
  config.Set("forest_pages_at_load", obs::JsonValue(forest_pages_at_load_));
  config.Set("forest_pages_final",
             obs::JsonValue(engine_->StorageBytes() / kPageSize));
  config.Set("query_list",
             obs::JsonValue(static_cast<uint64_t>(queries_.size())));
  config.Set("clients", obs::JsonValue(static_cast<uint64_t>(clients_.size())));
  config.Set("refreshes", obs::JsonValue(static_cast<int64_t>(w_.refreshes)));
  config.Set("increment_fraction", obs::JsonValue(options.increment_fraction));
  config.Set("windows", obs::JsonValue(static_cast<uint64_t>(window_s_.size())));
  config.Set("refresh_threads",
             obs::JsonValue(std::getenv("CUBETREE_REFRESH_THREADS")));
  config.Set("nproc", obs::JsonValue(static_cast<uint64_t>(
                          std::thread::hardware_concurrency())));

  // Per window, all clients together: p50, p99 and throughput; the run
  // reports the faster quartile of the windows. With passes over one list,
  // a query's latency is the faster quartile of its passes, and the
  // percentiles are taken over the list.
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> qps;
  uint64_t timed = 0;
  obs::JsonValue& windows = report.Set("windows", obs::JsonValue::MakeArray());
  for (size_t w = 0; w < window_s_.size(); ++w) {
    std::vector<double> ns;
    for (const Client& client : clients_) {
      if (w < client.window_ns.size()) {
        ns.insert(ns.end(), client.window_ns[w].begin(),
                  client.window_ns[w].end());
      }
    }
    if (ns.empty()) continue;
    timed += ns.size();
    p50s.push_back(Percentile(ns, 50) / 1e3);
    p99s.push_back(Percentile(ns, 99) / 1e3);
    qps.push_back(static_cast<double>(ns.size()) / window_s_[w]);
    obs::JsonValue window = obs::JsonValue::MakeObject();
    window.Set("seconds", obs::JsonValue(window_s_[w]));
    window.Set("queries", obs::JsonValue(static_cast<uint64_t>(ns.size())));
    window.Set("p50_us", obs::JsonValue(p50s.back()));
    window.Set("p99_us", obs::JsonValue(p99s.back()));
    window.Set("qps", obs::JsonValue(qps.back()));
    windows.Append(std::move(window));
  }
  double query_p50 = FastQuartile(p50s);
  double query_p99 = FastQuartile(p99s);
  double query_qps = Percentile(qps, 75);  // The faster quartile.
  if (w_.mode != Mode::kOnline) {
    std::vector<double> per_query;
    for (const std::vector<double>& ns : clients_[0].query_ns) {
      if (!ns.empty()) per_query.push_back(FastQuartile(ns));
    }
    query_p50 = Percentile(per_query, 50) / 1e3;
    query_p99 = Percentile(per_query, 99) / 1e3;
    query_qps = static_cast<double>(queries_.size()) / FastQuartile(window_s_);
  }
  obs::JsonValue& samples = report.Set("samples", obs::JsonValue::MakeObject());
  for (const auto& [name, values] :
       {std::pair{"setup_s", &setup_s_}, std::pair{"refresh_s", &refresh_s_}}) {
    obs::JsonValue& series = samples.Set(name, obs::JsonValue::MakeArray());
    for (double v : *values) series.Append(obs::JsonValue(v));
  }
  QueryLayers layers;
  for (const Client& client : clients_) layers.Merge(client.layers);
  uint64_t facts = warehouse_->generator().NumBaseLineitems();
  for (uint32_t increment : applied_) {
    facts += warehouse_->generator().NumIncrementLineitems(
        options.increment_fraction, increment);
  }

  obs::JsonValue& metrics = report.Set("metrics", obs::JsonValue::MakeObject());
  auto emit = [&](const char* name, double value, const char* unit,
                  uint64_t samples) {
    obs::JsonValue& m = metrics.Set(name, obs::JsonValue::MakeObject());
    m.Set("value", obs::JsonValue(value));
    m.Set("unit", obs::JsonValue(unit));
    m.Set("n_samples", obs::JsonValue(samples));
    std::printf("metric=%s workload=%s value=%.17g unit=%s n=%llu\n", name,
                w_.name, value, unit, static_cast<unsigned long long>(samples));
  };
  const uint64_t nr = refresh_s_.size();
  if (!traced()) {
    emit("setup_s", Median(setup_s_), "s", setup_s_.size());
    emit("query_p50_us", query_p50, "us", timed);
    emit("query_p99_us", query_p99, "us", timed);
    emit("query_qps", query_qps, "1/s", timed);
    emit("refresh_s", FastQuartile(refresh_s_), "s", nr);
    emit("modeled_write_s", Median(refresh_write_s_), "s", nr);
    emit("bytes_per_fact",
         static_cast<double>(engine_->StorageBytes()) /
             static_cast<double>(facts),
         "B", facts);
    emit("peak_rss_mb", peak_rss_mb_, "MiB", 1);
  } else {
    const uint64_t lq = layers.spans.ops;
    const double per_query = lq == 0 ? 0.0 : 1.0 / static_cast<double>(lq);
    const double per_timed =
        timed == 0 ? 0.0 : 1.0 / static_cast<double>(timed);
    auto query_us = [&](const char* span) {
      return layers.spans.MeanSelfNs(span) / 1e3;
    };
    emit("engine.overhead_us", query_us("query"), "us", lq);
    emit("engine.route_us", query_us("route"), "us", lq);
    emit("engine.materialize_us", query_us("search"), "us", lq);
    emit("engine.reaggregate_frac",
         static_cast<double>(layers.reaggregated) * per_query, "ratio", lq);
    emit("engine.rows_per_point",
         layers.points_examined == 0
             ? 0.0
             : static_cast<double>(layers.rows) /
                   static_cast<double>(layers.points_examined),
         "ratio", lq);
    emit("rtree.descent_us", query_us("rtree.descent"), "us", lq);
    emit("rtree.scan_us", query_us("rtree.scan"), "us", lq);
    emit("rtree.internal_pages_per_query",
         static_cast<double>(layers.internal_pages) * per_query, "count", lq);
    emit("rtree.candidate_leaves_per_query",
         static_cast<double>(layers.candidate_leaves) * per_query, "count", lq);
    emit("rtree.points_examined_per_query",
         static_cast<double>(layers.points_examined) * per_query, "count", lq);
    const uint64_t fetches = layers.pool_hits + layers.pages_read;
    emit("storage.pool_hit_ratio",
         fetches == 0 ? 0.0
                      : static_cast<double>(layers.pool_hits) /
                            static_cast<double>(fetches),
         "ratio", lq);
    emit("storage.pages_read_per_query",
         static_cast<double>(layers.pages_read) * per_query, "count", lq);
    const uint64_t reads = storage_.io.TotalReads();
    emit("storage.random_read_frac",
         reads == 0 ? 0.0
                    : static_cast<double>(storage_.io.random_reads) /
                          static_cast<double>(reads),
         "ratio", timed);
    emit("storage.evictions_per_query",
         static_cast<double>(storage_.evictions) * per_timed, "count",
         timed);
    emit("storage.pages_verified_per_query",
         static_cast<double>(storage_.pages_verified) * per_timed, "count",
         timed);
    emit("storage.query_modeled_disk_ms",
         options.disk.ModeledSeconds(storage_.io) * 1e3 * per_timed, "ms",
         timed);
    emit("storage.refresh_modeled_disk_s", Median(refresh_modeled_s_), "s",
         nr);
    const uint64_t lr = refresh_layers_.ops;
    auto refresh_s = [&](const char* span, bool self) {
      return (self ? refresh_layers_.MeanSelfNs(span)
                   : refresh_layers_.MeanBusyNs(span)) /
             1e9;
    };
    emit("olap.compute_s", refresh_s("refresh.sort", true), "s", lr);
    emit("sort.load_spill_s", load_layers_.MeanBusyNs("sort.spill") / 1e9, "s",
         load_layers_.ops);
    emit("sort.load_runs_spilled", Mean(sort_runs_), "count",
         sort_runs_.size());
    emit("sort.load_bytes_spilled", Mean(sort_bytes_), "B",
         sort_bytes_.size());
    emit("forest.merge_pack_s", refresh_s("refresh.merge_pack", false), "s",
         lr);
    emit("forest.manifest_commit_s",
         refresh_s("refresh.manifest_commit", false), "s", lr);
    emit("forest.publish_s", refresh_s("refresh.publish", false), "s", lr);
    emit("forest.refresh_self_s", refresh_s("refresh", true), "s", lr);
    emit("forest.bytes_written_per_refresh", Mean(refresh_bytes_written_),
         "B", nr);
    emit("obs.trace_overhead_frac", trace_overhead_, "ratio", queries_.size());

    // The distributions behind the per-layer means, per span name.
    obs::JsonValue& dist = report.Set("layers", obs::JsonValue::MakeObject());
    auto add = [&dist](const std::string& phase, const SpanFold& fold,
                       double scale, const char* unit) {
      for (const auto* series : {&fold.self_ns, &fold.busy_ns}) {
        const char* kind = series == &fold.self_ns ? ".self" : ".busy";
        for (const auto& [name, values] : *series) {
          std::vector<double> scaled;
          for (double v : values) scaled.push_back(v / scale);
          obs::JsonValue& h =
              dist.Set(phase + "/" + name + kind, obs::JsonValue::MakeObject());
          h.Set("unit", obs::JsonValue(unit));
          h.Set("n", obs::JsonValue(static_cast<uint64_t>(scaled.size())));
          h.Set("mean", obs::JsonValue(Mean(scaled)));
          h.Set("p50", obs::JsonValue(Percentile(scaled, 50)));
          h.Set("p99", obs::JsonValue(Percentile(scaled, 99)));
        }
      }
    };
    add("query", layers.spans, 1e3, "us");
    add("refresh", refresh_layers_, 1e9, "s");
    add("load", load_layers_, 1e9, "s");
  }
  obs::JsonValue& oracle = report.Set("oracle", obs::JsonValue::MakeObject());
  oracle.Set("checked", obs::JsonValue(checked_));
  oracle.Set("mismatches", obs::JsonValue(mismatches_));
  report.Set("correct", obs::JsonValue(mismatches_ == 0 && checked_ > 0));
  report.Set("attempted", obs::JsonValue(attempted_));
  report.Set("failed", obs::JsonValue(failed_));
  return report;
}

void Bench::WriteTraceFile() {
  std::vector<std::shared_ptr<const obs::Trace>> traces = refresh_traces_;
  std::vector<BenchSpan> spans = main_spans_;
  for (const Client& client : clients_) {
    traces.insert(traces.end(), client.kept_traces.begin(),
                  client.kept_traces.end());
    spans.insert(spans.end(), client.spans.begin(), client.spans.end());
  }
  obs::JsonValue doc = obs::Tracer::ChromeTraceJson(traces);
  obs::JsonValue events = *doc.Find("traceEvents");
  for (const BenchSpan& span : spans) {
    obs::JsonValue event = obs::JsonValue::MakeObject();
    event.Set("name", obs::JsonValue(span.name));
    event.Set("cat", obs::JsonValue("bench"));
    event.Set("ph", obs::JsonValue("X"));
    event.Set("ts", obs::JsonValue(span.start_ns / 1000));
    event.Set("dur", obs::JsonValue((span.end_ns - span.start_ns) / 1000));
    event.Set("pid", obs::JsonValue(static_cast<uint64_t>(0)));
    event.Set("tid", obs::JsonValue(static_cast<uint64_t>(span.thread)));
    events.Append(std::move(event));
  }
  doc.Set("traceEvents", std::move(events));
  std::ofstream out(flags_.trace_path);
  out << doc.Dump(-1) << "\n";
  if (!out) {
    std::fprintf(stderr, "ctbench: cannot write %s\n",
                 flags_.trace_path.c_str());
  }
}

}  // namespace
}  // namespace suite
}  // namespace cubetree

int main(int argc, char** argv) {
  cubetree::InitLogLevelFromEnv();
  cubetree::suite::Flags flags = cubetree::suite::ParseFlags(argc, argv);
  // Two refresh workers, so no workload loads more than four cores: the
  // online workload adds two readers.
  setenv("CUBETREE_REFRESH_THREADS", "2", 1);
  cubetree::suite::Bench bench(std::move(flags));
  return bench.Run();
}
