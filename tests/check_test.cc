// Tests of src/check: clean stores must produce zero findings, and injected
// corruption (bit flips, tampered pages, tampered sidecars and manifests,
// stray files) must be reported under the right code.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "cubetree/forest.h"
#include "fault/fault_injector.h"
#include "obs/json.h"
#include "obs/query_profile.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
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

/// Rewrites page `id` of the page file at `path` through `edit`, leaving
/// its checksum sidecar as it was.
void EditPage(const std::string& path, PageId id,
              const std::function<void(char*)>& edit) {
  ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(path));
  Page page;
  ASSERT_OK(file->ReadPage(id, &page));
  edit(page.data);
  ASSERT_OK(file->WritePage(id, page));
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

/// True when `report` holds a `code` finding whose context is `context`.
bool HasFinding(const CheckReport& report, const std::string& code,
                const std::string& context) {
  for (const Finding& f : report.findings()) {
    if (f.code == code && f.context == context) return true;
  }
  return false;
}

/// Every file under `dir` by name, with its bytes.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

// --- CheckReport ---------------------------------------------------------

TEST(CheckReportTest, CountsBySeverity) {
  CheckReport report;
  report.AddError("rtree", "pack-order", "broken");
  report.AddWarning("rtree", "leaf-fill", "thin \"quoted\"\n");
  report.AddInfo("forest", "views", "ok");
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.findings().size(), 3u);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.ToString().find("pack-order"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"code\":\"pack-order\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  ASSERT_OK_AND_ASSIGN(obs::JsonValue doc, obs::JsonValue::Parse(json));
  for (const char* key : {"findings", "errors", "warnings", "suppressed",
                          "clean"}) {
    EXPECT_NE(doc.Find(key), nullptr) << key;
  }
  const obs::JsonValue& warning = doc.Find("findings")->elements()[1];
  EXPECT_EQ(warning.Find("severity")->str(), "WARNING");
  EXPECT_EQ(warning.Find("message")->str(), "thin \"quoted\"\n");
  EXPECT_EQ(doc.Find("errors")->number(), 1);
  EXPECT_FALSE(doc.Find("clean")->boolean());
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

// --- CheckTree ------------------------------------------------------------

/// The arity of the one view (7, arity 1) the fixture trees hold.
std::optional<uint8_t> View7(uint32_t view) {
  if (view == 7) return 1;
  return std::nullopt;
}

/// Packs `count` arity-1 points of view 7 into a 1-d tree at `path`, with
/// at most `fanout` children per internal node (0 for page capacity).
void BuildView7Tree(const std::string& path, BufferPool* pool, Coord count,
                    uint16_t fanout) {
  std::vector<PointRecord> points;
  for (Coord x = 1; x <= count; ++x) {
    PointRecord rec;
    rec.view_id = 7;
    rec.coords[0] = x;
    rec.agg = AggValue{static_cast<int64_t>(x), 1};
    points.push_back(rec);
  }
  VectorPointSource source(std::move(points));
  RTreeOptions options;
  options.dims = 1;
  options.max_internal_entries = fanout;
  auto built = PackedRTree::Build(path, options, pool, &source, View7);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
}

class RTreeCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("check_rtree");
    path_ = dir_ + "/tree.ctr";
    pool_ = std::make_unique<BufferPool>(256);
    // 2000 points with 511 entries per leaf make four leaves (pages 1..4)
    // under one internal root (page 5).
    BuildView7Tree(path_, pool_.get(), 2000, 0);
  }

  CheckReport Check() {
    CheckReport report;
    EXPECT_OK(CheckTree(path_, View7, &report));
    return report;
  }

  std::string dir_;
  std::string path_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(RTreeCheckerTest, CleanTreeHasNoFindings) {
  CheckReport report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

TEST_F(RTreeCheckerTest, ReadsEachPageOnce) {
  ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(path_));
  const PageId pages = file->NumPages();
  ASSERT_EQ(pages, 6u);
  obs::QueryProfile profile;
  CheckReport report;
  {
    obs::QueryProfile::Scope scope(&profile);
    ASSERT_OK(CheckTree(path_, View7, &report));
  }
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(profile.pages_read, pages);
}

TEST_F(RTreeCheckerTest, DetectsLeafBitFlip) {
  // High byte of the first coordinate of leaf page 1, entry 0: the point
  // jumps far ahead of its neighbours, breaking pack order and escaping
  // the parent's MBR.
  FlipByte(path_, 1 * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = Check();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_TRUE(HasCode(report, "pack-order") ||
              HasCode(report, "mbr-containment"))
      << CodeList(report);
}

TEST_F(RTreeCheckerTest, DetectsInternalBitFlip) {
  // High byte of lo[0] of the root's first MBR: claimed MBR no longer
  // matches the child's actual bounding box.
  FlipByte(path_, 5 * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = Check();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_TRUE(HasCode(report, "mbr-containment")) << CodeList(report);
}

TEST_F(RTreeCheckerTest, DetectsMetaBitFlip) {
  FlipByte(path_, 0, 0x01);  // Magic.
  CheckReport report = Check();
  EXPECT_TRUE(HasCode(report, "meta-magic")) << CodeList(report);
}

// One row per code the pass reports. Each row tampers with a fresh tree;
// a structural row then re-signs the sidecar over the tampered bytes, so
// the code it expects comes from the structure check, not the CRC.
TEST(CheckTreeTamperTest, EveryCodeHasACase) {
  // The tree most rows tamper with: 2000 points of view 7, at most two
  // children per internal node. Pages 1..4 are leaves (511, 511, 511 and
  // 467 entries), 5 and 6 their parents, 7 the root; height 3.
  constexpr PageId kRoot = 7;
  constexpr size_t kLeafEntry = ViewRecordBytes(1);
  constexpr size_t kInternalEntry = 2 * sizeof(Coord) + sizeof(uint32_t);
  const auto set_count = [](char* page, uint16_t count) {
    RNodeSetCount(page, count);
  };
  const auto set_child = [](char* page, size_t entry, PageId child) {
    EncodeFixed32(page + kRNodeHeaderSize + entry * kInternalEntry +
                      2 * sizeof(Coord),
                  child);
  };
  const auto set_meta = [](size_t offset, uint32_t value) {
    return [offset, value](char* page) { EncodeFixed32(page + offset, value); };
  };
  struct Row {
    const char* code;
    bool resign;
    std::function<void(const std::string& path)> tamper;
    /// The page the finding must name, when the row pins one.
    std::optional<PageId> page = std::nullopt;
  };
  const auto edit = [](PageId id, std::function<void(char*)> fn) {
    return [id, fn](const std::string& path) { EditPage(path, id, fn); };
  };
  const std::vector<Row> rows = {
      // Internal structure.
      {"child-pointer", true,
       edit(kRoot, [&](char* p) { set_child(p, 0, kRoot); })},
      {"page-shared", true,
       edit(kRoot, [&](char* p) { set_child(p, 1, 5); })},
      {"unreachable-leaf", true,
       edit(5, [&](char* p) { set_count(p, 1); })},
      {"leaf-depth", true,
       [&](const std::string& path) {
         // Page 6 lets go of leaf 4, which the root claims beside page 5.
         EditPage(path, 6, [&](char* p) { set_count(p, 1); });
         EditPage(path, kRoot, [&](char* p) { set_child(p, 1, 4); });
       }},
      {"depth", true, edit(0, set_meta(kRTreeMetaHeight, 4))},
      {"empty-node", true, edit(6, [&](char* p) { set_count(p, 0); })},
      {"internal-overflow", true,
       edit(5, [&](char* p) { set_count(p, 0xFFFF); })},
      {"mbr-containment", true,
       edit(kRoot,
            [](char* p) {
              // hi[0] of the root's first entry below its child's points.
              EncodeFixed32(p + kRNodeHeaderSize + sizeof(Coord), 10);
            })},
      {"page-role", true, edit(2, [](char* p) { p[0] = 0; })},
      // Leaves.
      {"leaf-arity", true, edit(2, [](char* p) { p[1] = 5; })},
      {"leaf-overflow", true,
       edit(2, [&](char* p) { set_count(p, 0xFFFF); })},
      {"pack-order", true,
       edit(2,
            [](char* p) {
              EncodeFixed32(p + kRNodeHeaderSize + 10 * kLeafEntry, 1);
            })},
      {"view-contiguity", true,
       edit(2, [](char* p) { EncodeFixed32(p + 4, 8); })},
      {"stray-view", true, edit(4, [](char* p) { EncodeFixed32(p + 4, 99); })},
      {"leaf-fill", true, edit(2, [&](char* p) { set_count(p, 500); })},
      // The first leaf of a run is held to the target its successors show
      // (the points it loses also make a point-count error).
      {"leaf-fill", true, edit(1, [&](char* p) { set_count(p, 500); }), 1},
      {"point-count", true,
       edit(0,
            [](char* p) {
              EncodeFixed64(p + kRTreeMetaNumPoints, 2001);
            })},
      // Metadata.
      {"meta-magic", true, edit(0, set_meta(0, 0))},
      {"meta-dims", true, edit(0, [](char* p) { p[kRTreeMetaDims] = 9; })},
      {"meta-counts", true, edit(0, set_meta(kRTreeMetaNumLeafPages, 100))},
      {"meta-root", true, edit(0, set_meta(kRTreeMetaRoot, 6))},
      {"meta-height", true, edit(0, set_meta(kRTreeMetaHeight, 0))},
      {"meta-missing", true,
       [](const std::string& path) {
         std::filesystem::resize_file(path, 0);
       }},
      // Checksums: the sidecar is left as the tamper made it.
      {"checksum-mismatch", false,
       [](const std::string& path) { FlipByte(path, 3 * kPageSize + 99, 1); }},
      {"checksum-missing", false,
       [](const std::string& path) {
         ASSERT_OK(RemoveChecksumSidecar(path));
       }},
      {"checksum-sidecar", false,
       [](const std::string& path) {
         FlipByte(ChecksumSidecarPath(path), 20, 1);
       }},
      {"checksum-count", false,
       [](const std::string& path) {
         ASSERT_OK(WriteChecksumSidecar(path, {1, 2, 3}));
       }},
  };
  const std::string dir = MakeTestDir("check_tamper");
  BufferPool pool(64);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.code);
    const std::string path = dir + "/" + row.code + ".ctr";
    BuildView7Tree(path, &pool, 2000, 2);
    {
      CheckReport clean;
      ASSERT_OK(CheckTree(path, View7, &clean));
      ASSERT_EQ(clean.findings().size(), 0u) << clean.ToString();
    }
    row.tamper(path);
    if (row.resign) ASSERT_OK(ResignSidecar(path));
    CheckReport report;
    ASSERT_OK(CheckTree(path, View7, &report));
    EXPECT_TRUE(HasCode(report, row.code)) << report.ToString();
    if (row.page.has_value()) {
      EXPECT_TRUE(HasFinding(report, row.code,
                             path + " page " + std::to_string(*row.page)))
          << report.ToString();
    }
    if (row.resign) {
      for (const Finding& f : report.findings()) {
        EXPECT_EQ(f.code.rfind("checksum-", 0), std::string::npos)
            << report.ToString();
      }
    }
  }
}

// Zero suppression: an uncompressed leaf stores every coordinate, so one
// beyond its view's arity can be nonzero on disk.
TEST(CheckTreeTamperTest, NonzeroCoordinateBeyondViewArity) {
  const std::string dir = MakeTestDir("check_zero");
  const std::string path = dir + "/tree.ctr";
  // View 1 (arity 1) then view 2 (arity 2), ten points each, in a 2-d tree
  // whose leaves store both coordinates: leaf 1 holds view 1.
  std::vector<PointRecord> points;
  for (uint32_t view : {1u, 2u}) {
    for (Coord x = 1; x <= 10; ++x) {
      PointRecord rec;
      rec.view_id = view;
      rec.coords[0] = x;
      rec.coords[1] = view == 1 ? 0 : 5;
      points.push_back(rec);
    }
  }
  const ViewArityFn arity = [](uint32_t view) -> std::optional<uint8_t> {
    return static_cast<uint8_t>(view);
  };
  RTreeOptions options;
  options.dims = 2;
  options.compress_leaves = false;
  BufferPool pool(16);
  {
    VectorPointSource source(points);
    ASSERT_OK(
        PackedRTree::Build(path, options, &pool, &source, arity).status());
  }
  CheckReport clean;
  ASSERT_OK(CheckTree(path, arity, &clean));
  ASSERT_EQ(clean.findings().size(), 0u) << clean.ToString();
  // The second coordinate of view 1's last point.
  EditPage(path, 1, [](char* p) {
    EncodeFixed32(p + kRNodeHeaderSize + 9 * ViewRecordBytes(2) +
                      sizeof(Coord),
                  1);
  });
  ASSERT_OK(ResignSidecar(path));
  CheckReport report;
  ASSERT_OK(CheckTree(path, arity, &report));
  EXPECT_TRUE(HasCode(report, "zero-suppression")) << report.ToString();
}

// --- CheckForest ------------------------------------------------------------

class ForestCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("check_forest");
    pool_ = std::make_unique<BufferPool>(256);
    manifest_path_ = dir_ + "/f.manifest";
    BuildForest(OpenOptions());
  }

  /// The full contents of every view: 100 points each.
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
  };

  /// Arity-1 and arity-2 views: SelectMapping places both in one 2-d tree,
  /// `one_tree_per_view` each in its own.
  void BuildForest(const CubetreeForest::Options& options) {
    auto forest =
        std::move(CubetreeForest::Create(options, pool_.get()).value());
    ViewDef v1;
    v1.id = 1;
    v1.attrs = {0};
    ViewDef v2;
    v2.id = 2;
    v2.attrs = {0, 1};
    Provider provider;
    ASSERT_OK(forest->Build({v1, v2}, &provider));
  }

  CubetreeForest::Options OpenOptions() const {
    CubetreeForest::Options options;
    options.dir = dir_;
    options.name = "f";
    return options;
  }

  /// One partial refresh: a pending delta tree beside each main tree.
  void ApplyPartialRefresh() {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Open(OpenOptions(), pool_.get()));
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

  /// Damage only the structure check sees: the recorded point count of
  /// the tree file at `path`, under a re-signed sidecar.
  static void MiscountPoints(const std::string& path) {
    EditPage(path, 0, [](char* p) {
      EncodeFixed64(p + kRTreeMetaNumPoints, 3);
    });
    ASSERT_OK(ResignSidecar(path));
  }

  CheckReport Check() {
    BufferPool check_pool(256);
    CheckReport report;
    EXPECT_OK(CheckForest(dir_, "f", &check_pool, &report));
    return report;
  }

  /// Rewrites the manifest line by line through `edit`.
  void EditManifest(const std::function<void(std::string*)>& edit) {
    std::ifstream in(manifest_path_);
    ASSERT_TRUE(in.is_open());
    std::string text, line;
    while (std::getline(in, line)) {
      edit(&line);
      text += line + "\n";
    }
    in.close();
    std::ofstream out(manifest_path_, std::ios::trunc);
    out << text;
  }

  /// Open and Recover both refuse the store with Corruption.
  void ExpectRefused() {
    BufferPool pool(64);
    auto opened = CubetreeForest::Open(OpenOptions(), &pool);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
    auto recovered = CubetreeForest::Recover(OpenOptions(), &pool);
    ASSERT_FALSE(recovered.ok());
    EXPECT_TRUE(recovered.status().IsCorruption())
        << recovered.status().ToString();
  }

  /// Open leaves view `view`'s tree out of service with a `code` finding
  /// naming `context`, and changes nothing on disk: the directory listing
  /// and every file's bytes are as they were.
  void ExpectOpenLeavesOutOfService(uint32_t view, const std::string& code,
                                    const std::string& context) {
    const auto before = DirContents(dir_);
    {
      BufferPool pool(64);
      CheckReport report;
      ASSERT_OK_AND_ASSIGN(
          auto forest,
          CubetreeForest::Open(OpenOptions(), &pool, nullptr, &report));
      EXPECT_TRUE(forest->AcquireSnapshot().IsViewQuarantined(view));
      EXPECT_TRUE(HasFinding(report, code, context)) << report.ToString();
    }
    EXPECT_EQ(DirContents(dir_), before);
  }

  /// Recover takes the one tree out of service, naming `code`.
  void ExpectRecoverQuarantines(const std::string& code) {
    BufferPool pool(64);
    ForestRecoveryReport recovery;
    ASSERT_OK(
        CubetreeForest::Recover(OpenOptions(), &pool, nullptr, &recovery)
            .status());
    EXPECT_EQ(recovery.quarantined_trees, std::vector<size_t>{0});
    EXPECT_NE(recovery.ToString().find(code), std::string::npos)
        << recovery.ToString();
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
  // One partial refresh leaves a pending delta tree beside each main tree,
  // and the check covers the delta file too: damage to it is found.
  ApplyPartialRefresh();
  CheckReport report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();

  MiscountPoints(dir_ + "/f_t0_d0.ctr");
  report = Check();
  EXPECT_TRUE(HasCode(report, "point-count")) << report.ToString();
}

TEST_F(ForestCheckerTest, DetectsSelectMappingViolation) {
  // Tamper with the manifest: list view 1 twice on its tree line, so the
  // tree claims two views of arity 1 and view 1 two placements.
  EditManifest([](std::string* line) {
    if (line->rfind("tree ", 0) == 0) *line += " 1";
  });
  ExpectRefused();
  CheckReport report = Check();
  EXPECT_TRUE(HasCode(report, "manifest-corrupt")) << CodeList(report);
}

TEST_F(ForestCheckerTest, DetectsManifestHeaderCorruption) {
  FlipByte(manifest_path_, 0, 0x20);
  CheckReport report = Check();
  EXPECT_TRUE(HasCode(report, "manifest-corrupt")) << CodeList(report);
}

TEST_F(ForestCheckerTest, RefusesStoresWithoutChecksums) {
  const std::string manifest = [&] {
    std::ifstream in(manifest_path_);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto restore = [&] { std::ofstream(manifest_path_) << manifest; };
  // A v1 manifest, which had no `checksums` line.
  EditManifest([](std::string* line) {
    if (line->ends_with(" v2")) line->back() = '1';
    if (line->starts_with("checksums")) line->clear();
  });
  ExpectRefused();
  restore();
  // Sidecars switched off.
  EditManifest([](std::string* line) {
    if (*line == "checksums 1") *line = "checksums 0";
  });
  ExpectRefused();
  restore();
  // A tree file without its sidecar: Open leaves the tree out of service,
  // Recover sets it aside.
  const std::string main = dir_ + "/f_t0_g0.ctr";
  ASSERT_OK(RemoveChecksumSidecar(main));
  ExpectOpenLeavesOutOfService(1, "checksum-missing", main);
  ExpectRecoverQuarantines("checksum-missing");
}

TEST_F(ForestCheckerTest, MissingSidecarStillChecksTheDeltaFile) {
  // The main file's sidecar is gone and the delta file is damaged: the
  // check reports both, each against its own file.
  ApplyPartialRefresh();
  const std::string main = dir_ + "/f_t0_g0.ctr";
  const std::string delta = dir_ + "/f_t0_d0.ctr";
  ASSERT_OK(RemoveChecksumSidecar(main));
  MiscountPoints(delta);
  CheckReport report = Check();
  EXPECT_TRUE(HasFinding(report, "checksum-missing", main))
      << report.ToString();
  EXPECT_TRUE(HasFinding(report, "point-count", delta)) << report.ToString();
  // The manifest still names the tree's files: Recover sets them aside,
  // it would not sweep them.
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
  ExpectOpenLeavesOutOfService(1, "point-count", delta);
}

TEST_F(ForestCheckerTest, RefusesTreeFileOfOtherDims) {
  // Replace the 2-d tree file with a 3-d one holding the same views.
  std::vector<PointRecord> points(2);
  points[0].view_id = 1;
  points[0].coords[0] = 1;
  points[1].view_id = 2;
  points[1].coords[0] = 1;
  points[1].coords[1] = 1;
  RTreeOptions options;
  options.dims = 3;
  VectorPointSource source(points);
  const std::string main = dir_ + "/f_t0_g0.ctr";
  ASSERT_OK(PackedRTree::Build(main, options, pool_.get(), &source,
                               [](uint32_t view) -> std::optional<uint8_t> {
                                 return static_cast<uint8_t>(view);
                               })
                .status());
  ExpectOpenLeavesOutOfService(1, "tree-dims", main);
  CheckReport report = Check();
  bool named = false;
  for (const Finding& f : report.findings()) {
    named |= f.code == "tree-dims" &&
             f.message.find("3 dimensions") != std::string::npos;
  }
  EXPECT_TRUE(named) << report.ToString();
}

TEST_F(ForestCheckerTest, ChecksEveryTreeBesideOneRecoverSetAside) {
  // Each view in its own tree. Recover sets aside tree 0, damaged; later
  // damage to tree 1 is still found, and the set-aside file is an error
  // that names it, not a store that cannot be checked.
  const std::string main0 = dir_ + "/g_t0_g0.ctr";
  const std::string main1 = dir_ + "/g_t1_g0.ctr";
  CubetreeForest::Options options = OpenOptions();
  options.name = "g";
  options.one_tree_per_view = true;
  BuildForest(options);
  FlipByte(main0, 1 * kPageSize + kRNodeHeaderSize + 4, 1);
  {
    BufferPool pool(64);
    ForestRecoveryReport recovery;
    ASSERT_OK(
        CubetreeForest::Recover(options, &pool, nullptr, &recovery).status());
    ASSERT_EQ(recovery.quarantined_trees, std::vector<size_t>{0});
  }
  ASSERT_TRUE(FileExists(main0 + ".quarantine"));
  MiscountPoints(main1);

  BufferPool pool(64);
  CheckReport report;
  ASSERT_OK(CheckForest(dir_, "g", &pool, &report));
  EXPECT_TRUE(HasFinding(report, "file-missing", main0)) << report.ToString();
  EXPECT_TRUE(HasFinding(report, "point-count", main1)) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

TEST_F(ForestCheckerTest, RebuildDeletesFilesAnEarlierRecoverySetAside) {
  // A restart between the quarantine and the rebuild: the second recovery
  // finds the damaged tree's files already set aside and still hands them
  // to the rebuild to delete.
  FlipByte(dir_ + "/f_t0_g0.ctr", 1 * kPageSize + kRNodeHeaderSize + 4, 1);
  {
    BufferPool pool(64);
    ASSERT_OK(CubetreeForest::Recover(OpenOptions(), &pool).status());
  }
  BufferPool pool(64);
  ForestRecoveryReport recovery;
  ASSERT_OK_AND_ASSIGN(
      auto forest,
      CubetreeForest::Recover(OpenOptions(), &pool, nullptr, &recovery));
  ASSERT_EQ(recovery.quarantined_trees, std::vector<size_t>{0});
  Provider provider;
  ASSERT_OK(forest->RebuildQuarantined(&provider));
  for (const auto& [name, bytes] : DirContents(dir_)) {
    EXPECT_FALSE(name.ends_with(".quarantine")) << name;
  }
  CheckReport report = Check();
  EXPECT_EQ(report.errors() + report.warnings(), 0u) << report.ToString();
}

TEST_F(ForestCheckerTest, RecoverReturnsIoErrorsTypedAndSetsNothingAside) {
  // An I/O failure opening or reading a tree file means the check could
  // not run: a healthy tree must not be quarantined for it.
  for (const char* point : {"storage.page.open", "storage.page.read"}) {
    SCOPED_TRACE(point);
    const auto before = DirContents(dir_);
    ASSERT_OK(FaultInjector::Instance().Arm(point, "enospc(1)"));
    BufferPool pool(64);
    auto recovered = CubetreeForest::Recover(OpenOptions(), &pool);
    FaultInjector::Instance().DisarmAll();
    ASSERT_FALSE(recovered.ok());
    EXPECT_TRUE(recovered.status().IsStorageFull())
        << recovered.status().ToString();
    EXPECT_EQ(DirContents(dir_), before);
  }
}

TEST_F(ForestCheckerTest, ReportsWhatRecoverSweeps) {
  // Debris Recover deletes: a sidecar without its tree file, a manifest
  // draft, and the refresh journal of an older store.
  const std::vector<std::string> strays = {dir_ + "/f.manifest.tmp",
                                           dir_ + "/f.refresh.wal",
                                           dir_ + "/f_t0_g9.ctr.crc"};
  for (const std::string& stray : strays) std::ofstream(stray) << "x";
  CheckReport report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  std::vector<std::string> reported;
  for (const Finding& f : report.findings()) {
    if (f.code == "unreferenced-file") reported.push_back(f.context);
  }
  EXPECT_EQ(reported, strays) << report.ToString();

  ForestRecoveryReport recovery;
  {
    BufferPool pool(64);
    ASSERT_OK(CubetreeForest::Recover(OpenOptions(), &pool, nullptr, &recovery)
                  .status());
  }
  EXPECT_EQ(recovery.removed_orphans, strays);
  report = Check();
  EXPECT_EQ(report.errors(), 0u) << report.ToString();
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
}

// Recover runs the same check on every tree file, so damage only the CRC
// sees, and a leaf of a view the tree does not store, quarantine the tree.
TEST_F(ForestCheckerTest, RecoverQuarantinesOnChecksumMismatch) {
  // Page 1 is view 1's leaf; byte 12 is in its first entry's sum, which
  // no structural check constrains.
  const std::string main = dir_ + "/f_t0_g0.ctr";
  EditPage(main, 1, [](char* p) { p[kRNodeHeaderSize + 4] ^= 1; });
  ExpectOpenLeavesOutOfService(1, "checksum-mismatch", main + " page 1");
  ExpectRecoverQuarantines("checksum-mismatch");
}

TEST_F(ForestCheckerTest, RecoverQuarantinesOnStrayView) {
  const std::string tree_path = dir_ + "/f_t0_g0.ctr";
  EditPage(tree_path, 1, [](char* p) { EncodeFixed32(p + 4, 99); });
  ASSERT_OK(ResignSidecar(tree_path));
  ExpectOpenLeavesOutOfService(1, "stray-view", tree_path + " page 1");
  ExpectRecoverQuarantines("stray-view");
}

TEST_F(ForestCheckerTest, DeepModeFindsTreeFileCorruption) {
  // First Build writes generation 0 of tree 0.
  const std::string tree_path = dir_ + "/f_t0_g0.ctr";
  FlipByte(tree_path, 1 * kPageSize + kRNodeHeaderSize + 3, 0x40);
  CheckReport report = Check();
  EXPECT_GT(report.errors(), 0u) << report.ToString();
  EXPECT_TRUE(HasCode(report, "checksum-mismatch")) << CodeList(report);
}

}  // namespace
}  // namespace cubetree
