// Tests of the src/check invariant-checker subsystem: clean stores must
// produce zero findings, and injected corruption (bit flips in leaf pages,
// internal pages and metadata; manifest tampering; leaked pins) must be
// reported in the right category.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/checkers.h"
#include "check/invariant_checker.h"
#include "cubetree/forest.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

/// XORs one byte of `path` at `offset` with `mask` (a targeted bit flip).
void FlipByte(const std::string& path, uint64_t offset, char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good());
  byte = static_cast<char>(byte ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

bool HasCode(const CheckReport& report, const std::string& code) {
  for (const Finding& f : report.findings()) {
    if (f.code == code) return true;
  }
  return false;
}

std::string CodeList(const CheckReport& report) {
  std::string out;
  for (const Finding& f : report.findings()) out += f.code + " ";
  return out;
}

// --- CheckReport ---------------------------------------------------------

TEST(CheckReportTest, CountsBySeverity) {
  CheckReport report;
  report.AddError("rtree", "pack-order", "broken");
  report.AddWarning("rtree", "leaf-fill", "thin");
  report.AddInfo("forest", "views", "ok");
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.findings().size(), 3u);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.ToString().find("pack-order"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"code\":\"pack-order\""),
            std::string::npos);
}

TEST(CheckReportTest, CapsFindingsPerCode) {
  CheckReport report;
  for (size_t i = 0; i < CheckReport::kMaxFindingsPerCode + 5; ++i) {
    report.AddError("rtree", "pack-order", "violation " + std::to_string(i));
  }
  report.AddError("rtree", "mbr-containment", "different code still lands");
  EXPECT_EQ(report.findings().size(), CheckReport::kMaxFindingsPerCode + 1);
  EXPECT_EQ(report.suppressed(), 5u);
  // Suppressed findings still count toward the severity totals.
  EXPECT_EQ(report.errors(), CheckReport::kMaxFindingsPerCode + 6);
}

// --- RTreeChecker -------------------------------------------------------

class RTreeCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("check_rtree");
    path_ = dir_ + "/tree.ctr";
    pool_ = std::make_unique<BufferPool>(256);
    // 2000 arity-1 points of one view: with 511 entries per leaf this makes
    // four leaves (pages 1..4) under one internal root (page 5).
    std::vector<PointRecord> points;
    for (Coord x = 1; x <= 2000; ++x) {
      PointRecord rec;
      rec.view_id = 7;
      rec.coords[0] = x;
      rec.agg = AggValue{static_cast<int64_t>(x), 1};
      points.push_back(rec);
    }
    VectorPointSource source(std::move(points));
    RTreeOptions options;
    options.dims = 1;
    auto built = PackedRTree::Build(path_, options, pool_.get(), &source,
                                    [](uint32_t) -> uint8_t { return 1; });
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    num_leaf_pages_ = (*built)->num_leaf_pages();
    ASSERT_GE(num_leaf_pages_, 2u);
  }

  CheckReport DeepCheck() {
    CheckOptions options;
    options.deep = true;
    RTreeChecker checker(path_, options, [](uint32_t) -> uint8_t {
      return 1;
    });
    CheckReport report;
    EXPECT_OK(checker.Run(&report));
    return report;
  }

  std::string dir_;
  std::string path_;
  std::unique_ptr<BufferPool> pool_;
  uint32_t num_leaf_pages_ = 0;
};

TEST_F(RTreeCheckerTest, CleanTreeHasNoFindings) {
  CheckReport report = DeepCheck();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

TEST_F(RTreeCheckerTest, DetectsLeafBitFlip) {
  // High byte of the first coordinate of leaf page 1, entry 0: the point
  // jumps far ahead of its neighbours, breaking pack order and escaping
  // the parent's MBR.
  FlipByte(path_, 1 * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = DeepCheck();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_TRUE(HasCode(report, "pack-order") ||
              HasCode(report, "mbr-containment"))
      << CodeList(report);
}

TEST_F(RTreeCheckerTest, DetectsInternalBitFlip) {
  // High byte of lo[0] of the root's first MBR: claimed MBR no longer
  // matches the child's actual bounding box.
  const uint64_t root_page = num_leaf_pages_ + 1;
  FlipByte(path_, root_page * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = DeepCheck();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_TRUE(HasCode(report, "mbr-containment")) << CodeList(report);
}

TEST_F(RTreeCheckerTest, DetectsMetaBitFlip) {
  FlipByte(path_, 0, 0x01);  // Magic.
  CheckReport report = DeepCheck();
  EXPECT_TRUE(HasCode(report, "meta-magic")) << CodeList(report);
}

// --- ForestChecker ------------------------------------------------------

class ForestCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("check_forest");
    pool_ = std::make_unique<BufferPool>(256);
    CubetreeForest::Options options;
    options.dir = dir_;
    options.name = "f";
    auto forest = std::move(CubetreeForest::Create(options, pool_.get())
                                .value());
    // Arity-1 and arity-2 views: SelectMapping places both in one 2-d tree.
    ViewDef v1;
    v1.id = 1;
    v1.attrs = {0};
    ViewDef v2;
    v2.id = 2;
    v2.attrs = {0, 1};
    struct Provider : CubetreeForest::ViewDataProvider {
      Result<std::unique_ptr<RecordStream>> OpenViewStream(
          const ViewDef& view) override {
        std::vector<char> flat;
        std::vector<char> rec(ViewRecordBytes(view.arity()));
        // Pack order sorts by the last coordinate first, so keep the
        // second coordinate constant and ascend on the first.
        for (Coord x = 1; x <= 100; ++x) {
          Coord coords[kMaxDims] = {x, 5};
          EncodeViewRecord(rec.data(), coords, view.arity(),
                           AggValue{static_cast<int64_t>(x), 1});
          flat.insert(flat.end(), rec.begin(), rec.end());
        }
        return std::unique_ptr<RecordStream>(new MemoryRecordStream(
            std::move(flat), ViewRecordBytes(view.arity())));
      }
    } provider;
    ASSERT_OK(forest->Build({v1, v2}, &provider));
    manifest_path_ = dir_ + "/f.manifest";
  }

  CheckReport Check() {
    BufferPool check_pool(256);
    CheckOptions options;
    options.deep = true;
    ForestChecker checker(dir_, "f", &check_pool, options);
    CheckReport report;
    EXPECT_OK(checker.Run(&report));
    return report;
  }

  std::string dir_;
  std::string manifest_path_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(ForestCheckerTest, CleanForestHasNoFindings) {
  CheckReport report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

TEST_F(ForestCheckerTest, PendingDeltaTreeIsScannedAndCounted) {
  // One partial refresh leaves a pending delta tree beside each main tree.
  // The checker must scan and count the delta files too, or its scanned
  // total falls short of the metadata total of a healthy forest.
  {
    CubetreeForest::Options options;
    options.dir = dir_;
    options.name = "f";
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Open(options, pool_.get()));
    struct Provider : CubetreeForest::ViewDataProvider {
      Result<std::unique_ptr<RecordStream>> OpenViewStream(
          const ViewDef& view) override {
        std::vector<char> rec(ViewRecordBytes(view.arity()));
        Coord coords[kMaxDims] = {7, 5};
        EncodeViewRecord(rec.data(), coords, view.arity(), AggValue{7, 1});
        return std::unique_ptr<RecordStream>(new MemoryRecordStream(
            std::move(rec), ViewRecordBytes(view.arity())));
      }
    } provider;
    ASSERT_OK(forest->ApplyDeltaPartial(&provider));
    ASSERT_EQ(forest->AcquireSnapshot().TotalDeltas(), 1u);
  }
  CheckReport report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

TEST_F(ForestCheckerTest, DetectsSelectMappingViolation) {
  // Tamper with the manifest: list view 1 twice on its tree line, so the
  // tree claims two views of arity 1.
  std::ifstream in(manifest_path_);
  ASSERT_TRUE(in.is_open());
  std::string text, line;
  while (std::getline(in, line)) {
    if (line.rfind("tree ", 0) == 0) line += " 1";
    text += line + "\n";
  }
  in.close();
  std::ofstream out(manifest_path_, std::ios::trunc);
  out << text;
  out.close();

  CheckReport report = Check();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_TRUE(HasCode(report, "select-mapping")) << CodeList(report);
  EXPECT_TRUE(HasCode(report, "duplicate-placement")) << CodeList(report);
}

TEST_F(ForestCheckerTest, DetectsManifestHeaderCorruption) {
  FlipByte(manifest_path_, 0, 0x20);
  CheckReport report = Check();
  EXPECT_TRUE(HasCode(report, "manifest-corrupt")) << CodeList(report);
}

TEST_F(ForestCheckerTest, DeepModeFindsTreeFileCorruption) {
  // First Build writes generation 0 of tree 0.
  const std::string tree_path = dir_ + "/f_t0_g0.ctr";
  FlipByte(tree_path, 1 * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = Check();
  EXPECT_GT(report.errors(), 0u) << report.ToString();
}

// --- BufferPoolChecker --------------------------------------------------

TEST(BufferPoolCheckerTest, DetectsAndClearsPinLeak) {
  const std::string dir = MakeTestDir("check_pool");
  auto file =
      std::move(PageManager::Create(dir + "/pages.db").value());
  ASSERT_TRUE(file->AllocatePage().ok());
  BufferPool pool(16);
  {
    auto handle = std::move(pool.Fetch(file.get(), 0).value());
    BufferPoolChecker checker(&pool);
    CheckReport report;
    ASSERT_OK(checker.Run(&report));
    EXPECT_TRUE(HasCode(report, "pin-leak")) << CodeList(report);
    EXPECT_EQ(pool.PinnedPages(), 1u);
    handle.Release();
  }
  BufferPoolChecker checker(&pool);
  CheckReport report;
  ASSERT_OK(checker.Run(&report));
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

}  // namespace
}  // namespace cubetree
