#ifndef CUBETREE_ENGINE_WAREHOUSE_H_
#define CUBETREE_ENGINE_WAREHOUSE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/conventional_engine.h"
#include "engine/cubetree_engine.h"
#include "olap/cube_builder.h"
#include "olap/lattice.h"
#include "olap/query_model.h"
#include "olap/selection.h"
#include "storage/io_stats.h"
#include "tpcd/dbgen.h"

namespace cubetree {

/// Configuration of one end-to-end experiment, mirroring the paper's
/// platform: TPC-D data at a scale factor, a 32 MB-class buffer pool, and a
/// late-90s disk cost model.
struct WarehouseOptions {
  double scale_factor = 0.02;
  uint64_t seed = 19980601;
  /// Working directory for all files (created if missing).
  std::string dir = "ctwh_data";
  /// Buffer pool size in pages per configuration (4096 x 8 KiB = 32 MiB,
  /// the paper machine's total memory).
  size_t buffer_pool_pages = 4096;
  size_t sort_budget_bytes = 16u << 20;
  /// Scale buffer pool and sort memory by the scale factor, preserving the
  /// paper's memory-to-data ratio (32 MB machine vs ~600 MB of views at
  /// SF=1). Without this, small benchmark datasets fit entirely in memory
  /// and the I/O asymmetries the paper measures disappear.
  bool scale_memory_with_sf = true;
  /// Structures (views+indices) the greedy selection keeps; 9 reproduces
  /// the paper's configuration.
  size_t max_structures = 9;
  /// Refresh increment size as a fraction of the base data (paper: 10%).
  double increment_fraction = 0.10;
  /// Materialize sort-order replicas of the top view in the Cubetree
  /// configuration, one per selected index order (the paper's replication
  /// feature, used "to compensate for the additional indices").
  bool replicate_top_view = true;
  /// Run view/index selection against the paper's SF=1 statistics so the
  /// materialized configuration (6 views + 3 indices / 2 replicas) matches
  /// the paper at any benchmark scale factor. When false, selection uses
  /// the actual scaled statistics (the lattice shape genuinely changes at
  /// tiny scales: e.g. |suppkey x custkey| stops being ~|F|).
  bool paper_statistics = true;
  DiskModel disk;
};

/// Timing + I/O accounting of one load/update phase.
struct PhaseReport {
  std::string phase;
  double wall_seconds = 0;
  IoStats io;
  /// The phase's I/O replayed through the 1997 disk model.
  double modeled_seconds = 0;
};

/// Table 6-style load report.
struct LoadReport {
  PhaseReport views;    // Compute + materialize the views.
  PhaseReport indices;  // Build the selected B-trees (conventional only).
  double TotalWallSeconds() const {
    return views.wall_seconds + indices.wall_seconds;
  }
  double TotalModeledSeconds() const {
    return views.modeled_seconds + indices.modeled_seconds;
  }
};

/// Orchestrates the paper's full experimental protocol: generate TPC-D
/// data, run view+index selection on the lattice, materialize the same
/// view set under both storage organizations, refresh both with the same
/// increments, and answer the same slice queries from both.
class Warehouse {
 public:
  static Result<std::unique_ptr<Warehouse>> Create(WarehouseOptions options);

  const WarehouseOptions& options() const { return options_; }
  const CubeSchema& schema() const { return schema_; }
  const CubeLattice& lattice() const { return *lattice_; }
  const SelectionResult& selection() const { return selection_; }
  tpcd::Generator& generator() { return *generator_; }

  /// Selected views (conventional configuration materializes exactly
  /// these).
  const std::vector<ViewDef>& selected_views() const {
    return selection_.views;
  }
  /// Selected views plus the sort-order replicas of the top view that
  /// stand in for the selected indices (Cubetree configuration).
  const std::vector<ViewDef>& cubetree_views() const {
    return cubetree_views_;
  }

  /// Loads the conventional configuration (tables, then indices).
  Result<LoadReport> LoadConventional();

  /// Loads the Cubetree configuration (sort + compute + pack in one phase).
  Result<LoadReport> LoadCubetrees();

  /// Reopens a previously persisted Cubetree configuration after an
  /// unclean shutdown (crash-consistent recovery instead of a fresh
  /// load), then repairs any quarantined tree: from the surviving views
  /// where they cover the lost ones, else from base plus the first
  /// `increments_applied` increments — the facts the forest held before
  /// the crash.
  Result<PhaseReport> RecoverCubetrees(uint32_t increments_applied = 0,
                                       ForestRecoveryReport* report =
                                           nullptr);

  /// Table 7 row 1: per-tuple incremental maintenance of the relational
  /// views (maintenance indices are built beforehand and not charged).
  Result<PhaseReport> UpdateConventionalIncremental(uint32_t increment);

  /// Table 7 row 2: recompute the relational views from scratch over base
  /// plus all increments up to and including `increment`.
  Result<PhaseReport> UpdateConventionalRecompute(uint32_t increment);

  /// Table 7 row 3: merge-pack the Cubetrees with the sorted delta.
  Result<PhaseReport> UpdateCubetrees(uint32_t increment);

  /// Extension: delta-tree refresh — pack the increment into small delta
  /// trees without rewriting the mains (refresh window ~ increment size).
  Result<PhaseReport> UpdateCubetreesPartial(uint32_t increment);

  /// Extension: fold all pending delta trees into the main trees.
  Result<PhaseReport> CompactCubetrees();

  ConventionalEngine* conventional() { return conventional_.get(); }
  CubetreeEngine* cubetrees() { return cubetree_.get(); }

  /// Fresh query generator (deterministic per seed).
  SliceQueryGenerator MakeQueryGenerator(uint64_t seed) const {
    return SliceQueryGenerator(schema_, seed);
  }

  /// The cube builder options of the configuration accounted to `io`; with
  /// cubetree_io(), those of the Cubetree load, refreshes and repairs.
  CubeBuilder::Options BuilderOptions(
      const std::shared_ptr<IoStats>& io) const;

  const std::shared_ptr<IoStats>& conventional_io() const { return conv_io_; }
  const std::shared_ptr<IoStats>& cubetree_io() const { return cbt_io_; }
  BufferPool* conventional_pool() { return conv_pool_.get(); }
  BufferPool* cubetree_pool() { return cbt_pool_.get(); }

 private:
  explicit Warehouse(WarehouseOptions options)
      : options_(std::move(options)) {}

  Status Init();
  /// Options of the cubetree engine, shared by load and recovery.
  CubetreeEngine::Options CubetreeOptions() const;
  /// One conventional update with increment `increment`: applied tuple
  /// by tuple, or recomputed from every fact through it.
  Result<PhaseReport> UpdateConventional(uint32_t increment, bool recompute);
  /// One cubetree refresh with increment `increment`: merge-packed into
  /// the trees, or packed into delta trees when `partial`.
  Result<PhaseReport> RefreshCubetrees(uint32_t increment, bool partial);
  Result<std::unique_ptr<ComputedViews>> Compute(
      const std::vector<ViewDef>& views, FactProvider* facts,
      const std::string& tag, const std::shared_ptr<IoStats>& io);
  PhaseReport FinishPhase(const std::string& name, double seconds,
                          const IoStats& before,
                          const std::shared_ptr<IoStats>& io) const;

  WarehouseOptions options_;
  std::unique_ptr<tpcd::Generator> generator_;
  CubeSchema schema_;
  std::unique_ptr<CubeLattice> lattice_;
  SelectionResult selection_;
  std::vector<ViewDef> cubetree_views_;

  std::shared_ptr<IoStats> conv_io_;
  std::shared_ptr<IoStats> cbt_io_;
  std::unique_ptr<BufferPool> conv_pool_;
  std::unique_ptr<BufferPool> cbt_pool_;
  std::unique_ptr<ConventionalEngine> conventional_;
  std::unique_ptr<CubetreeEngine> cubetree_;
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_WAREHOUSE_H_
