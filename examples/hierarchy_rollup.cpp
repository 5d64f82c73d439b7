// Scenario: roll-up and drill-down along dimension hierarchies (Section 2
// of the paper: day -> month -> year on time, partkey -> brand on part).
// Materializes views over hierarchy attributes of the extended TPC-D
// schema, then walks the classic OLAP session: yearly totals, drill into
// one year by month, roll up parts to brands, and resolve key values to
// names through the dimension tables.
//
// Build & run:  ./build/examples/hierarchy_rollup

#include <filesystem>
#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "engine/cubetree_engine.h"
#include "engine/dimensions.h"
#include "olap/cube_builder.h"
#include "storage/buffer_pool.h"
#include "tpcd/dbgen.h"

using namespace cubetree;

namespace {

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef v;
  v.id = id;
  v.attrs = std::move(attrs);
  return v;
}

}  // namespace

int main() {
  InitLogLevelFromEnv();
  std::error_code ec;
  std::filesystem::remove_all("hierarchy_data", ec);
  ec.clear();
  std::filesystem::create_directories("hierarchy_data", ec);
  if (ec) {
    std::fprintf(stderr, "mkdir hierarchy_data: %s\n", ec.message().c_str());
    return 1;
  }

  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = 0.01;
  tpcd::Generator generator(gen_options);
  CubeSchema schema = generator.MakeExtendedSchema();
  BufferPool pool(2048);

  // Views along the time and part hierarchies.
  std::vector<ViewDef> views = {
      MakeView(1, {tpcd::kBrand, tpcd::kMonth, tpcd::kYear}),
      MakeView(2, {tpcd::kBrand, tpcd::kYear}),
      MakeView(3, {tpcd::kBrand}),
      MakeView(4, {tpcd::kYear}),
      MakeView(5, {}),
  };

  CubeBuilder::Options build_options;
  build_options.temp_dir = "hierarchy_data";
  CubeBuilder builder(schema, build_options);
  auto facts = generator.BaseFacts(/*extended_attrs=*/true);
  auto data_result = builder.ComputeAll(views, facts.get(), "hier");
  if (!data_result.ok()) {
    std::fprintf(stderr, "compute: %s\n",
                 data_result.status().ToString().c_str());
    return 1;
  }
  auto data = std::move(data_result).value();
  std::printf("computed %zu hierarchy views (%llu pipelined, no re-sort, "
              "thanks to suffix-compatible pack orders)\n",
              views.size(),
              static_cast<unsigned long long>(builder.pipelined_views()));

  CubetreeEngine::Options engine_options;
  engine_options.dir = "hierarchy_data";
  auto engine_result = CubetreeEngine::Create(schema, engine_options, &pool);
  if (!engine_result.ok()) return 1;
  auto engine = std::move(engine_result).value();
  if (!engine->Load(views, data.get()).ok()) return 1;
  data.reset();  // Removes the spool files.

  auto dims_result = DimensionTables::Load("hierarchy_data", generator,
                                           &pool);
  if (!dims_result.ok()) return 1;
  auto dims = std::move(dims_result).value();
  std::printf("dimension tables: %.1f MiB (part/supplier/customer)\n\n",
              dims->TotalBytes() / 1048576.0);

  auto run = [&](const SliceQuery& query, const char* title,
                 size_t max_rows) {
    auto result = engine->Execute(query, nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   result.status().ToString().c_str());
      return;
    }
    result->SortRows();
    std::printf("%s\n", title);
    for (size_t i = 0; i < result->rows.size() && i < max_rows; ++i) {
      const ResultRow& row = result->rows[i];
      std::printf("  ");
      for (Coord c : row.group) std::printf("%-4u ", c);
      std::printf(" sum=%-8lld avg=%.1f\n",
                  static_cast<long long>(row.agg.sum), row.agg.Avg());
    }
    if (result->rows.size() > max_rows) {
      std::printf("  ... (%zu rows)\n", result->rows.size());
    }
    std::printf("\n");
  };

  // 1. Top of the hierarchy: total quantity per year.
  SliceQuery per_year;
  per_year.node_mask = 1u << tpcd::kYear;
  per_year.attrs = {tpcd::kYear};
  per_year.bindings = {std::nullopt};
  run(per_year, "Total quantity per year (roll-up top):", 10);

  // 2. Drill-down: year 3, per month — answered from V{brand,month,year}
  //    with on-the-fly re-aggregation over brand.
  SliceQuery per_month;
  per_month.node_mask = (1u << tpcd::kYear) | (1u << tpcd::kMonth);
  per_month.attrs = {tpcd::kYear, tpcd::kMonth};
  per_month.bindings = {Coord{3}, std::nullopt};
  run(per_month, "Drill-down: year 3 by month:", 12);

  // 3. Roll-up along the part hierarchy: top 5 brands of year 3, with
  //    names resolved from the part dimension's brand naming.
  SliceQuery per_brand;
  per_brand.node_mask = (1u << tpcd::kBrand) | (1u << tpcd::kYear);
  per_brand.attrs = {tpcd::kBrand, tpcd::kYear};
  per_brand.bindings = {std::nullopt, Coord{3}};
  auto brands = engine->Execute(per_brand, nullptr);
  if (!brands.ok()) return 1;
  std::sort(brands->rows.begin(), brands->rows.end(),
            [](const ResultRow& a, const ResultRow& b) {
              return a.agg.sum > b.agg.sum;
            });
  std::printf("Top brands in year 3:\n");
  for (size_t i = 0; i < brands->rows.size() && i < 5; ++i) {
    std::printf("  Brand#%02u  sum=%lld\n", brands->rows[i].group[0],
                static_cast<long long>(brands->rows[i].agg.sum));
  }

  // 4. The dimension tables resolve keys to full descriptions.
  auto part = dims->GetPart(42);
  auto supplier = dims->GetSupplier(7);
  if (part.ok() && supplier.ok()) {
    std::printf("\ndimension lookups (O(1), dense keys):\n");
    std::printf("  part 42: %s, brand %u, type %u, container %s\n",
                part->name.c_str(), part->brand, part->type,
                part->container.c_str());
    std::printf("  supplier 7: %s, phone %s\n", supplier->name.c_str(),
                supplier->phone.c_str());
  }
  return 0;
}
