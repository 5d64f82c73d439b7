// Parameterized end-to-end property tests: both storage organizations,
// configured across pool sizes, compression and replication settings,
// must give identical answers to random slice and BETWEEN queries, some
// collapsing their ranged attributes (checked against brute force over the
// raw facts), after the load, with an increment pending as a delta tree,
// and after the merge refresh.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "engine/conventional_engine.h"
#include "engine/cubetree_engine.h"
#include "olap/cube_builder.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

// (pool_pages, compress_leaves, with_replicas, seed)
using EngineParam = std::tuple<int, bool, bool, int>;

class EnginePairProperty : public ::testing::TestWithParam<EngineParam> {
 protected:
  class Provider : public FactProvider {
   public:
    explicit Provider(const std::vector<FactTuple>* facts) : facts_(facts) {}
    Result<std::unique_ptr<FactSource>> Open() override {
      return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
    }

   private:
    const std::vector<FactTuple>* facts_;
  };

  static std::vector<FactTuple> MakeFacts(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<FactTuple> facts;
    for (int i = 0; i < n; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(25));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(6));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(15));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(40));
      facts.push_back(t);
    }
    return facts;
  }

  static QueryResult Reference(const SliceQuery& query,
                               const std::vector<FactTuple>& facts) {
    QueryResult result;
    std::map<std::vector<Coord>, AggValue> groups;
    for (const FactTuple& t : facts) {
      bool match = true;
      for (size_t i = 0; i < query.attrs.size() && match; ++i) {
        const auto [lo, hi] = query.AttrInterval(i);
        const Coord value = t.attr_values[query.attrs[i]];
        match = lo <= value && value <= hi;
      }
      if (!match) continue;
      std::vector<Coord> key;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        if (query.IsGrouped(i)) key.push_back(t.attr_values[query.attrs[i]]);
      }
      groups[key].Merge(AggValue{t.measure, 1});
    }
    for (auto& [key, agg] : groups) result.rows.push_back({key, agg});
    result.SortRows();
    return result;
  }

  static std::vector<ViewDef> Views(bool with_replicas) {
    auto mk = [](uint32_t id, std::vector<uint32_t> attrs) {
      ViewDef v;
      v.id = id;
      v.attrs = std::move(attrs);
      return v;
    };
    std::vector<ViewDef> views = {mk(7, {0, 1, 2}), mk(3, {0, 1}),
                                  mk(4, {2}),       mk(0, {})};
    if (with_replicas) {
      views.push_back(mk(1000, {1, 2, 0}));
      views.push_back(mk(1001, {2, 0, 1}));
    }
    return views;
  }
};

TEST_P(EnginePairProperty, EnginesAgreeAcrossConfigurations) {
  const auto [pool_pages, compress, replicas, seed] = GetParam();
  const std::string dir = MakeTestDir(
      "engprop_" + std::to_string(pool_pages) + (compress ? "c" : "u") +
      (replicas ? "r" : "n") + std::to_string(seed));

  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {25, 6, 15};
  auto facts = MakeFacts(2500, seed);

  CubeBuilder::Options build_options;
  build_options.temp_dir = dir;
  build_options.sort_budget_bytes = 1 << 14;
  CubeBuilder builder(schema, build_options);
  Provider provider(&facts);

  // Conventional engine: base views + a csp index.
  BufferPool conv_pool(pool_pages);
  ConventionalEngine::Options conv_options;
  conv_options.dir = dir;
  ASSERT_OK_AND_ASSIGN(auto conv, ConventionalEngine::Create(
                                      schema, conv_options, &conv_pool));
  {
    ASSERT_OK_AND_ASSIGN(auto data,
                         builder.ComputeAll(Views(false), &provider,
                                            "conv"));
    ASSERT_OK(conv->LoadTables(Views(false), data.get()));
    IndexDef csp;
    csp.id = 1;
    csp.view_id = 7;
    csp.key_attrs = {2, 1, 0};
    ASSERT_OK(conv->BuildIndices({csp}));
    data.reset();
  }

  // Cubetree engine with the swept physical parameters.
  BufferPool cbt_pool(pool_pages);
  CubetreeEngine::Options cbt_options;
  cbt_options.dir = dir;
  cbt_options.rtree.compress_leaves = compress;
  ASSERT_OK_AND_ASSIGN(auto cbt, CubetreeEngine::Create(schema, cbt_options,
                                                        &cbt_pool));
  {
    ASSERT_OK_AND_ASSIGN(auto data, builder.ComputeAll(Views(replicas),
                                                       &provider, "cbt"));
    ASSERT_OK(cbt->Load(Views(replicas), data.get()));
    data.reset();
  }

  auto check_queries = [&](const std::vector<FactTuple>& all, int rounds,
                           uint64_t qseed) {
    SliceQueryGenerator gen(schema, qseed);
    CubeLattice lattice(schema);
    for (size_t node = 0; node < lattice.num_nodes(); ++node) {
      const std::vector<uint32_t>& attrs = lattice.node(node).attrs;
      for (int draw = 0; draw < rounds; ++draw) {
        // An equality slice; a BETWEEN query over about a third of each
        // ranged attribute's domain; the same ranges with the ranged
        // attributes left out of the grouping, so several stored points
        // fold into one row.
        const SliceQuery range = gen.ForNodeRange(attrs, 0.35, false);
        SliceQuery collapsed = range;
        for (size_t i = 0; i < attrs.size(); ++i) {
          collapsed.grouped.push_back(!range.ranges[i].has_value());
        }
        for (const SliceQuery& query :
             {gen.ForNode(attrs, false), range, collapsed}) {
          QueryResult expected = Reference(query, all);
          auto a = conv->Execute(query, nullptr);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          a->SortRows();
          ASSERT_TRUE(a->SameRowsAs(expected))
              << "conventional: " << query.ToString(schema);
          auto b = cbt->Execute(query, nullptr);
          ASSERT_TRUE(b.ok()) << b.status().ToString();
          b->SortRows();
          ASSERT_TRUE(b->SameRowsAs(expected))
              << "cubetree: " << query.ToString(schema);
        }
      }
    }
  };
  check_queries(facts, 3, seed * 11);

  // Two increments through both refresh paths, re-checked after each. The
  // first stays pending as a delta tree, so its keys repeat across the
  // main and delta trees; the merge refresh then packs both into the main
  // tree.
  ASSERT_OK(conv->BuildMaintenanceIndices());
  std::vector<FactTuple> all = facts;
  for (int step = 0; step < 2; ++step) {
    SCOPED_TRACE(step == 0 ? "delta pending" : "after the merge");
    auto delta = MakeFacts(500, seed + 1000 + step);
    Provider delta_provider(&delta);
    {
      ASSERT_OK_AND_ASSIGN(auto d, builder.ComputeAll(Views(false),
                                                      &delta_provider,
                                                      "conv_d"));
      ASSERT_OK(conv->ApplyDeltaIncremental(d.get()));
    }
    {
      ASSERT_OK_AND_ASSIGN(auto d, builder.ComputeAll(Views(replicas),
                                                      &delta_provider,
                                                      "cbt_d"));
      ASSERT_OK(step == 0 ? cbt->ApplyDeltaPartial(d.get())
                          : cbt->ApplyDelta(d.get()));
    }
    all.insert(all.end(), delta.begin(), delta.end());
    check_queries(all, 2, seed * 13 + step);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnginePairProperty,
    ::testing::Combine(::testing::Values(16, 256),  // Pool pressure.
                       ::testing::Bool(),           // Leaf compression.
                       ::testing::Bool(),           // Replicas.
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace cubetree
