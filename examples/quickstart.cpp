// Quickstart: materialize three ROLAP aggregate views of a tiny sales fact
// table into a forest of Cubetrees, run slice queries against them (one
// through the SQL parser), and apply a bulk-incremental update.
//
// Build & run:  ./build/examples/quickstart

#include <filesystem>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "cubetree/forest.h"
#include "engine/cubetree_engine.h"
#include "engine/query_parser.h"
#include "olap/cube_builder.h"
#include "storage/buffer_pool.h"

using namespace cubetree;

namespace {

/// A tiny in-memory fact table: (partkey, suppkey, custkey) -> quantity.
std::vector<FactTuple> MakeFacts(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FactTuple> facts;
  for (int i = 0; i < n; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(50));  // part
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(10));  // supplier
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(30));  // customer
    t.measure = static_cast<int64_t>(1 + rng.Uniform(20));
    facts.push_back(t);
  }
  return facts;
}

class Facts : public FactProvider {
 public:
  explicit Facts(std::vector<FactTuple> tuples)
      : tuples_(std::move(tuples)) {}
  Result<std::unique_ptr<FactSource>> Open() override {
    return std::unique_ptr<FactSource>(new VectorFactSource(&tuples_));
  }

 private:
  std::vector<FactTuple> tuples_;
};

#define CHECK_OK(expr)                                               \
  do {                                                               \
    ::cubetree::Status _st = (expr);                                 \
    if (!_st.ok()) {                                                 \
      std::fprintf(stderr, "error: %s\n", _st.ToString().c_str());   \
      return 1;                                                      \
    }                                                                \
  } while (0)

}  // namespace

int main() {
  InitLogLevelFromEnv();
  std::error_code ec;
  std::filesystem::remove_all("quickstart_data", ec);
  ec.clear();
  std::filesystem::create_directories("quickstart_data", ec);
  if (ec) {
    std::fprintf(stderr, "mkdir quickstart_data: %s\n", ec.message().c_str());
    return 1;
  }

  // 1. Describe the grouping attributes of the warehouse.
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {50, 10, 30};
  schema.measure_name = "quantity";

  // 2. Pick the views to materialize. The projection-list order is the
  //    coordinate-axis order inside a Cubetree.
  ViewDef top;        // V{partkey,suppkey,custkey}
  top.id = 1;
  top.attrs = {0, 1, 2};
  ViewDef by_part;    // V{partkey}
  by_part.id = 2;
  by_part.attrs = {0};
  ViewDef grand;      // V{none}: the single super-aggregate.
  grand.id = 3;
  grand.attrs = {};
  std::vector<ViewDef> views = {top, by_part, grand};

  // 3. Compute the views from the fact stream (sort-based, from the
  //    smallest parent) and bulk-load the forest through the engine.
  BufferPool pool(1024);
  CubeBuilder::Options build_options;
  build_options.temp_dir = "quickstart_data";
  CubeBuilder builder(schema, build_options);
  Facts facts(MakeFacts(20000, 7));
  auto data_result = builder.ComputeAll(views, &facts, "base");
  if (!data_result.ok()) {
    std::fprintf(stderr, "compute: %s\n",
                 data_result.status().ToString().c_str());
    return 1;
  }
  auto data = std::move(data_result).value();

  CubetreeEngine::Options engine_options;
  engine_options.dir = "quickstart_data";
  auto engine_result = CubetreeEngine::Create(schema, engine_options, &pool);
  if (!engine_result.ok()) return 1;
  auto engine = std::move(engine_result).value();
  CHECK_OK(engine->Load(views, data.get()));
  data.reset();

  std::printf("forest: %zu cubetree(s), %llu points, %llu bytes\n",
              engine->forest()->plan().trees.size(),
              static_cast<unsigned long long>(
                  engine->forest()->AcquireSnapshot().TotalPoints()),
              static_cast<unsigned long long>(engine->StorageBytes()));

  // 4. Ask a question in SQL. The engine routes it to the best view (here:
  //    a slice of the top Cubetree) and prints one row per group.
  auto parsed_result = ParseSliceQuery(
      "SELECT partkey, SUM(quantity) FROM sales WHERE suppkey = 3 "
      "GROUP BY partkey",
      schema);
  if (!parsed_result.ok()) return 1;
  obs::QueryProfile profile;
  auto answer = engine->Execute(parsed_result->query, &profile);
  if (!answer.ok()) return 1;
  answer->SortRows();
  std::printf("\nTotal quantity per part from supplier 3 (plan: %s):\n",
              profile.plan.c_str());
  for (size_t i = 0; i < answer->rows.size() && i < 5; ++i) {
    std::printf("  partkey %-4u sum %lld\n", answer->rows[i].group[0],
                static_cast<long long>(answer->rows[i].agg.sum));
  }
  std::printf("  ... (%zu groups total)\n", answer->rows.size());

  // 5. New day, new data: compute the delta views and merge-pack. The
  //    forest is rebuilt with sequential I/O only; queries keep working.
  Facts delta(MakeFacts(2000, 8));
  auto delta_result = builder.ComputeAll(views, &delta, "delta");
  if (!delta_result.ok()) return 1;
  auto delta_views = std::move(delta_result).value();
  CHECK_OK(engine->ApplyDelta(delta_views.get()));
  delta_views.reset();

  auto grand_total = ParseSliceQuery("SELECT SUM(quantity) FROM sales",
                                     schema);
  if (!grand_total.ok()) return 1;
  auto total = engine->Execute(grand_total->query, nullptr);
  if (!total.ok()) return 1;
  std::printf("\nafter merge-pack update: grand total quantity = %lld "
              "over %u facts\n",
              static_cast<long long>(total->rows[0].agg.sum),
              total->rows[0].agg.count);
  return 0;
}
