#include <gtest/gtest.h>

#include <set>

#include "engine/warehouse.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

/// End-to-end warehouse test at a small scale factor: runs the paper's
/// entire experimental protocol (generate, select, load both
/// configurations, query both, refresh both) and checks correctness plus
/// the qualitative shape of the headline claims.
class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WarehouseOptions options;
    options.scale_factor = 0.002;  // ~12k fact rows: fast but non-trivial.
    options.dir = MakeTestDir("warehouse");
    options.buffer_pool_pages = 1024;
    options.sort_budget_bytes = 1 << 20;
    auto result = Warehouse::Create(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    warehouse_ = std::move(result).value();
  }

  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(WarehouseTest, SelectionMatchesPaperConfiguration) {
  const SelectionResult& selection = warehouse_->selection();
  std::vector<uint32_t> masks;
  for (const ViewDef& v : selection.views) masks.push_back(v.AttrMask());
  EXPECT_EQ(masks,
            (std::vector<uint32_t>{0b111, 0b011, 0b100, 0b010, 0b001, 0}));
  ASSERT_EQ(selection.indices.size(), 3u);
  std::set<std::vector<uint32_t>> keys;
  for (const IndexDef& index : selection.indices) {
    keys.insert(index.key_attrs);
  }
  EXPECT_TRUE(keys.count({2, 1, 0}));  // I_csp
  EXPECT_TRUE(keys.count({0, 2, 1}));  // I_pcs
  EXPECT_TRUE(keys.count({1, 0, 2}));  // I_spc

  // Cubetree configuration: the 6 views + 2 replicas of the top view.
  EXPECT_EQ(warehouse_->cubetree_views().size(), 8u);
}

TEST_F(WarehouseTest, FullProtocolLoadQueryUpdate) {
  // --- Load both configurations (Table 6 shape) ---
  ASSERT_OK_AND_ASSIGN(LoadReport conv_load,
                       warehouse_->LoadConventional());
  ASSERT_OK_AND_ASSIGN(LoadReport cbt_load, warehouse_->LoadCubetrees());
  EXPECT_GT(conv_load.views.wall_seconds, 0.0);
  EXPECT_GT(conv_load.indices.io.TotalOps(), 0u);
  EXPECT_GT(cbt_load.views.io.TotalOps(), 0u);
  // Cubetree load writes sequentially: almost no random writes.
  EXPECT_LT(cbt_load.views.io.random_writes,
            cbt_load.views.io.sequential_writes / 4 + 16);

  // --- Storage (the 2:1 claim's direction) ---
  const uint64_t conv_bytes = warehouse_->conventional()->StorageBytes();
  const uint64_t cbt_bytes = warehouse_->cubetrees()->StorageBytes();
  EXPECT_LT(cbt_bytes, conv_bytes);

  // --- Queries: both engines agree on 100 random slice queries ---
  SliceQueryGenerator gen = warehouse_->MakeQueryGenerator(1);
  const CubeLattice& lattice = warehouse_->lattice();
  int compared = 0;
  for (int i = 0; i < 100; ++i) {
    SliceQuery query = gen.UniformOverLattice(lattice,
                                              /*exclude_unbound=*/true,
                                              /*skip_none_node=*/true);
    auto conv = warehouse_->conventional()->Execute(query, nullptr);
    ASSERT_TRUE(conv.ok()) << conv.status().ToString();
    auto cbt = warehouse_->cubetrees()->Execute(query, nullptr);
    ASSERT_TRUE(cbt.ok()) << cbt.status().ToString();
    conv->SortRows();
    cbt->SortRows();
    ASSERT_TRUE(conv->SameRowsAs(*cbt))
        << "disagreement on " << query.ToString(warehouse_->schema());
    ++compared;
  }
  EXPECT_EQ(compared, 100);

  // --- Refresh (Table 7 shape) ---
  ASSERT_OK_AND_ASSIGN(PhaseReport cbt_update,
                       warehouse_->UpdateCubetrees(0));
  ASSERT_OK_AND_ASSIGN(PhaseReport conv_update,
                       warehouse_->UpdateConventionalIncremental(0));
  EXPECT_GT(conv_update.io.TotalOps(), 0u);
  // The conventional path random-writes; merge-pack does not (beyond
  // metadata pages).
  EXPECT_GT(conv_update.io.random_reads + conv_update.io.random_writes,
            cbt_update.io.random_reads + cbt_update.io.random_writes);

  // Post-update agreement on fresh queries.
  SliceQueryGenerator gen2 = warehouse_->MakeQueryGenerator(2);
  for (int i = 0; i < 40; ++i) {
    SliceQuery query = gen2.UniformOverLattice(lattice, true, true);
    auto conv = warehouse_->conventional()->Execute(query, nullptr);
    ASSERT_TRUE(conv.ok());
    auto cbt = warehouse_->cubetrees()->Execute(query, nullptr);
    ASSERT_TRUE(cbt.ok());
    conv->SortRows();
    cbt->SortRows();
    ASSERT_TRUE(conv->SameRowsAs(*cbt))
        << "post-update disagreement on "
        << query.ToString(warehouse_->schema());
  }

  // --- Recompute-from-scratch also lands in the same state ---
  ASSERT_OK_AND_ASSIGN(PhaseReport recompute,
                       warehouse_->UpdateConventionalRecompute(0));
  EXPECT_GT(recompute.wall_seconds, 0.0);
  SliceQueryGenerator gen3 = warehouse_->MakeQueryGenerator(3);
  for (int i = 0; i < 20; ++i) {
    SliceQuery query = gen3.UniformOverLattice(lattice, true, true);
    auto conv = warehouse_->conventional()->Execute(query, nullptr);
    ASSERT_TRUE(conv.ok());
    auto cbt = warehouse_->cubetrees()->Execute(query, nullptr);
    ASSERT_TRUE(cbt.ok());
    conv->SortRows();
    cbt->SortRows();
    ASSERT_TRUE(conv->SameRowsAs(*cbt))
        << "post-recompute disagreement on "
        << query.ToString(warehouse_->schema());
  }
}

TEST_F(WarehouseTest, ScaledStatisticsSelectionDiffers) {
  // With paper_statistics off at this tiny scale, |suppkey x custkey|
  // stops being ~|F| and the greedy genuinely changes its selection.
  WarehouseOptions options;
  options.scale_factor = 0.002;
  options.dir = MakeTestDir("warehouse_scaled");
  options.paper_statistics = false;
  ASSERT_OK_AND_ASSIGN(auto scaled, Warehouse::Create(options));
  EXPECT_EQ(scaled->selection().views[0].AttrMask(), 0b111u)
      << "top view is always first";
  bool same = scaled->selection().views.size() ==
              warehouse_->selection().views.size();
  if (same) {
    for (size_t i = 0; i < scaled->selection().views.size(); ++i) {
      same &= scaled->selection().views[i].AttrMask() ==
              warehouse_->selection().views[i].AttrMask();
    }
  }
  EXPECT_FALSE(same) << "scaled statistics should alter the selection";
}

TEST_F(WarehouseTest, DeltaTreeRefreshThenCompactionAgrees) {
  ASSERT_OK(warehouse_->LoadConventional().status());
  ASSERT_OK(warehouse_->LoadCubetrees().status());
  // Same increment through both refresh paths: per-tuple on the
  // conventional side, delta trees on the cubetree side.
  ASSERT_OK(warehouse_->UpdateConventionalIncremental(0).status());
  ASSERT_OK_AND_ASSIGN(PhaseReport partial,
                       warehouse_->UpdateCubetreesPartial(0));
  EXPECT_GT(partial.io.TotalOps(), 0u);
  EXPECT_GT(
      warehouse_->cubetrees()->forest()->AcquireSnapshot().TotalDeltas(), 0u);
  SliceQueryGenerator gen = warehouse_->MakeQueryGenerator(8);
  auto agree = [&](int n) {
    for (int i = 0; i < n; ++i) {
      SliceQuery query = gen.UniformOverLattice(warehouse_->lattice(),
                                                true, true);
      auto a = warehouse_->conventional()->Execute(query, nullptr);
      ASSERT_TRUE(a.ok());
      auto b = warehouse_->cubetrees()->Execute(query, nullptr);
      ASSERT_TRUE(b.ok());
      a->SortRows();
      b->SortRows();
      ASSERT_TRUE(a->SameRowsAs(*b)) << query.ToString(warehouse_->schema());
    }
  };
  agree(30);
  ASSERT_OK_AND_ASSIGN(PhaseReport compaction,
                       warehouse_->CompactCubetrees());
  EXPECT_EQ(
      warehouse_->cubetrees()->forest()->AcquireSnapshot().TotalDeltas(), 0u);
  agree(20);
}

TEST_F(WarehouseTest, UpdateBeforeLoadFails) {
  EXPECT_FALSE(warehouse_->UpdateCubetrees(0).ok());
  EXPECT_FALSE(warehouse_->UpdateConventionalIncremental(0).ok());
}

TEST_F(WarehouseTest, ModeledIoFavorsCubetreesOnUpdates) {
  ASSERT_OK(warehouse_->LoadConventional().status());
  ASSERT_OK(warehouse_->LoadCubetrees().status());
  ASSERT_OK_AND_ASSIGN(PhaseReport cbt, warehouse_->UpdateCubetrees(0));
  ASSERT_OK_AND_ASSIGN(PhaseReport conv,
                       warehouse_->UpdateConventionalIncremental(0));
  // Under the 1997 disk model the per-tuple path pays a seek per touched
  // page; the merge-pack path streams. Even at tiny scale the gap shows.
  EXPECT_GT(conv.modeled_seconds, cbt.modeled_seconds)
      << "conventional " << conv.modeled_seconds << "s vs cubetree "
      << cbt.modeled_seconds << "s";
}

}  // namespace
}  // namespace cubetree
