#include "engine/warehouse.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/timer.h"
#include "obs/trace.h"

namespace cubetree {

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Warehouse>> Warehouse::Create(
    WarehouseOptions options) {
  auto warehouse = std::unique_ptr<Warehouse>(
      new Warehouse(std::move(options)));
  CT_RETURN_NOT_OK(warehouse->Init());
  return warehouse;
}

Status Warehouse::Init() {
  CT_RETURN_NOT_OK(EnsureDir(options_.dir));
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = options_.scale_factor;
  gen_options.seed = options_.seed;
  generator_ = std::make_unique<tpcd::Generator>(gen_options);
  schema_ = generator_->MakeBaseSchema();

  lattice_ = std::make_unique<CubeLattice>(schema_);
  lattice_->EstimateRowCounts(generator_->NumBaseLineitems());
  // Catalog knowledge the Cardenas estimate cannot see: TPC-D associates
  // each part with exactly 4 suppliers, so the {partkey, suppkey} node has
  // ~4 x |part| groups (800k at SF=1), not the independent-draw estimate.
  CT_RETURN_NOT_OK(lattice_->SetRowCount(
      (1u << tpcd::kPartkey) | (1u << tpcd::kSuppkey),
      std::min<uint64_t>(4ull * generator_->sizes().parts,
                         generator_->NumBaseLineitems())));

  GreedyOptions greedy;
  greedy.max_structures = options_.max_structures;
  if (options_.paper_statistics) {
    // Select against the paper's SF=1 statistics so the configuration
    // matches the paper's experiment at any data scale.
    CubeSchema sf1 = schema_;
    sf1.attr_domains = {200000, 10000, 150000};
    CubeLattice selection_lattice(sf1);
    selection_lattice.EstimateRowCounts(6001215);
    CT_RETURN_NOT_OK(selection_lattice.SetRowCount(
        (1u << tpcd::kPartkey) | (1u << tpcd::kSuppkey), 800000));
    CT_ASSIGN_OR_RETURN(selection_, GreedySelect(selection_lattice, greedy));
  } else {
    CT_ASSIGN_OR_RETURN(selection_, GreedySelect(*lattice_, greedy));
  }

  // Cubetree configuration: selected views + one sort-order replica per
  // selected index whose order is not already covered. A Cubetree with
  // projection list (a,b,c) is packed in (c,b,a) order, so the replica for
  // index I{x,y,z} has the reversed projection list (z,y,x).
  cubetree_views_ = selection_.views;
  if (options_.replicate_top_view) {
    uint32_t next_replica_id = 1000;
    for (const IndexDef& index : selection_.indices) {
      std::vector<uint32_t> order(index.key_attrs.rbegin(),
                                  index.key_attrs.rend());
      bool covered = false;
      for (const ViewDef& view : cubetree_views_) {
        covered |= view.attrs == order;
      }
      if (covered) continue;
      ViewDef replica;
      replica.id = next_replica_id++;
      replica.attrs = std::move(order);
      cubetree_views_.push_back(std::move(replica));
    }
  }

  if (options_.scale_memory_with_sf) {
    options_.buffer_pool_pages = std::max<size_t>(
        64, static_cast<size_t>(options_.buffer_pool_pages *
                                options_.scale_factor));
    options_.sort_budget_bytes = std::max<size_t>(
        256u << 10, static_cast<size_t>(options_.sort_budget_bytes *
                                        options_.scale_factor));
  }
  conv_io_ = std::make_shared<IoStats>();
  cbt_io_ = std::make_shared<IoStats>();
  conv_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  cbt_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  return Status::OK();
}

CubeBuilder::Options Warehouse::BuilderOptions(
    const std::shared_ptr<IoStats>& io) const {
  CubeBuilder::Options builder_options;
  builder_options.temp_dir = options_.dir;
  builder_options.sort_budget_bytes = options_.sort_budget_bytes;
  builder_options.io_stats = io;
  return builder_options;
}

Result<std::unique_ptr<ComputedViews>> Warehouse::Compute(
    const std::vector<ViewDef>& views, FactProvider* facts,
    const std::string& tag, const std::shared_ptr<IoStats>& io) {
  CubeBuilder builder(schema_, BuilderOptions(io));
  return builder.ComputeAll(views, facts, tag);
}

PhaseReport Warehouse::FinishPhase(const std::string& name, double seconds,
                                   const IoStats& before,
                                   const std::shared_ptr<IoStats>& io) const {
  PhaseReport report;
  report.phase = name;
  report.wall_seconds = seconds;
  report.io = *io - before;
  report.modeled_seconds = options_.disk.ModeledSeconds(report.io);
  return report;
}

Result<LoadReport> Warehouse::LoadConventional() {
  LoadReport report;
  auto facts = generator_->BaseFacts();

  IoStats before = *conv_io_;
  Timer timer;
  CT_ASSIGN_OR_RETURN(auto data,
                      Compute(selection_.views, facts.get(), "conv_base",
                              conv_io_));
  ConventionalEngine::Options engine_options;
  engine_options.dir = options_.dir;
  engine_options.name = "conv";
  engine_options.io_stats = conv_io_;
  engine_options.sort_budget_bytes = options_.sort_budget_bytes;
  CT_ASSIGN_OR_RETURN(conventional_, ConventionalEngine::Create(
                                         schema_, engine_options,
                                         conv_pool_.get()));
  CT_RETURN_NOT_OK(conventional_->LoadTables(selection_.views, data.get()));
  report.views =
      FinishPhase("conventional views", timer.ElapsedSeconds(), before,
                  conv_io_);

  before = *conv_io_;
  timer.Reset();
  CT_RETURN_NOT_OK(conventional_->BuildIndices(selection_.indices));
  report.indices =
      FinishPhase("conventional indices", timer.ElapsedSeconds(), before,
                  conv_io_);
  return report;
}

CubetreeEngine::Options Warehouse::CubetreeOptions() const {
  CubetreeEngine::Options engine_options;
  engine_options.dir = options_.dir;
  engine_options.name = "cbt";
  engine_options.io_stats = cbt_io_;
  return engine_options;
}

Result<LoadReport> Warehouse::LoadCubetrees() {
  LoadReport report;
  auto facts = generator_->BaseFacts();

  IoStats before = *cbt_io_;
  Timer timer;
  CT_ASSIGN_OR_RETURN(auto data,
                      Compute(cubetree_views_, facts.get(), "cbt_base",
                              cbt_io_));
  CT_ASSIGN_OR_RETURN(cubetree_,
                      CubetreeEngine::Create(schema_, CubetreeOptions(),
                                             cbt_pool_.get()));
  CT_RETURN_NOT_OK(cubetree_->Load(cubetree_views_, data.get()));
  report.views = FinishPhase("cubetree load", timer.ElapsedSeconds(), before,
                             cbt_io_);
  report.indices.phase = "cubetree indices (none needed)";
  return report;
}

Result<PhaseReport> Warehouse::RecoverCubetrees(uint32_t increments_applied,
                                                ForestRecoveryReport* report) {
  ForestRecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  IoStats before = *cbt_io_;
  Timer timer;
  CT_ASSIGN_OR_RETURN(cubetree_,
                      CubetreeEngine::Recover(schema_, CubetreeOptions(),
                                              cbt_pool_.get(), report));
  // The facts are read only for a lost view no surviving view covers.
  auto facts = increments_applied == 0
                   ? generator_->BaseFacts()
                   : generator_->FactsThroughIncrement(
                         options_.increment_fraction, increments_applied);
  CT_RETURN_NOT_OK(cubetree_->Repair(facts.get(), BuilderOptions(cbt_io_)));
  return FinishPhase("cubetree recovery", timer.ElapsedSeconds(), before,
                     cbt_io_);
}

Result<PhaseReport> Warehouse::UpdateConventionalIncremental(
    uint32_t increment) {
  return UpdateConventional(increment, /*recompute=*/false);
}

Result<PhaseReport> Warehouse::UpdateConventionalRecompute(
    uint32_t increment) {
  return UpdateConventional(increment, /*recompute=*/true);
}

Result<PhaseReport> Warehouse::UpdateConventional(uint32_t increment,
                                                  bool recompute) {
  if (conventional_ == nullptr) {
    return Status::InvalidArgument("conventional configuration not loaded");
  }
  // The paper's footnote 7: the maintenance indexing exists before the
  // timed window.
  if (!recompute) CT_RETURN_NOT_OK(conventional_->BuildMaintenanceIndices());
  auto facts = recompute ? generator_->FactsThroughIncrement(
                               options_.increment_fraction, increment + 1)
                         : generator_->IncrementFacts(
                               options_.increment_fraction, increment);
  IoStats before = *conv_io_;
  Timer timer;
  CT_ASSIGN_OR_RETURN(
      auto data, Compute(selection_.views, facts.get(),
                         (recompute ? "conv_full" : "conv_inc") +
                             std::to_string(increment),
                         conv_io_));
  CT_RETURN_NOT_OK(recompute
                       ? conventional_->Rebuild(data.get())
                       : conventional_->ApplyDeltaIncremental(data.get()));
  PhaseReport report = FinishPhase(
      recompute ? "conventional recompute" : "conventional incremental update",
      timer.ElapsedSeconds(), before, conv_io_);
  return report;
}

Result<PhaseReport> Warehouse::UpdateCubetrees(uint32_t increment) {
  return RefreshCubetrees(increment, /*partial=*/false);
}

Result<PhaseReport> Warehouse::UpdateCubetreesPartial(uint32_t increment) {
  return RefreshCubetrees(increment, /*partial=*/true);
}

Result<PhaseReport> Warehouse::RefreshCubetrees(uint32_t increment,
                                                bool partial) {
  if (cubetree_ == nullptr) {
    return Status::InvalidArgument("cubetree configuration not loaded");
  }
  obs::TraceScope trace("refresh", cbt_io_.get());
  trace.Annotate("kind", partial ? "delta_tree" : "merge_pack");
  trace.Annotate("increment", static_cast<uint64_t>(increment));
  auto facts =
      generator_->IncrementFacts(options_.increment_fraction, increment);
  IoStats before = *cbt_io_;
  Timer timer;
  std::unique_ptr<ComputedViews> delta;
  {
    // Aggregation + external sort of the increment: the paper's "sort"
    // phase of a refresh.
    obs::Span sort_span("refresh.sort");
    CT_ASSIGN_OR_RETURN(
        delta, Compute(cubetree_views_, facts.get(),
                       (partial ? "cbt_part" : "cbt_inc") +
                           std::to_string(increment),
                       cbt_io_));
  }
  CT_RETURN_NOT_OK(partial ? cubetree_->ApplyDeltaPartial(delta.get())
                           : cubetree_->ApplyDelta(delta.get()));
  PhaseReport report = FinishPhase(
      partial ? "cubetree delta-tree update" : "cubetree merge-pack update",
      timer.ElapsedSeconds(), before, cbt_io_);
  return report;
}

Result<PhaseReport> Warehouse::CompactCubetrees() {
  if (cubetree_ == nullptr) {
    return Status::InvalidArgument("cubetree configuration not loaded");
  }
  IoStats before = *cbt_io_;
  Timer timer;
  CT_RETURN_NOT_OK(cubetree_->Compact());
  return FinishPhase("cubetree compaction", timer.ElapsedSeconds(), before,
                     cbt_io_);
}

}  // namespace cubetree
