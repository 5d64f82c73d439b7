#ifndef CUBETREE_TESTS_TEST_UTIL_H_
#define CUBETREE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/crc32.h"
#include "common/result.h"
#include "common/status.h"
#include "cubetree/view_def.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "storage/checksum.h"
#include "storage/page_manager.h"

namespace cubetree {

#define ASSERT_OK(expr)                                            \
  do {                                                             \
    const ::cubetree::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

#define EXPECT_OK(expr)                                            \
  do {                                                             \
    const ::cubetree::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                            \
  ASSERT_OK_AND_ASSIGN_IMPL(CT_CONCAT_(_r_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)                  \
  auto tmp = (expr);                                               \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                \
  lhs = std::move(tmp).value()

/// Sets one environment variable (nullptr unsets it) and restores its
/// previous value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    Set(value);
  }
  ~ScopedEnv() { Set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void Set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, value, 1);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Per-test scratch directory under the build tree, wiped on creation.
/// The running test's suite.name is folded into the path: fixtures pass a
/// constant name from SetUp, and with `ctest -j` every test is its own
/// process in a shared working directory — two tests of one suite must
/// not wipe each other's directory mid-run.
inline std::string MakeTestDir(const std::string& name) {
  std::string dir = "./ct_test_" + name;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    std::string suffix =
        std::string("_") + info->test_suite_name() + "." + info->name();
    for (char& c : suffix) {
      if (c == '/') c = '_';  // Parameterized test names contain '/'.
    }
    dir += suffix;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    ADD_FAILURE() << "failed to create test dir " << dir << ": "
                  << ec.message();
  }
  return dir;
}

inline ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef view;
  view.id = id;
  view.attrs = std::move(attrs);
  return view;
}

/// Runs CheckTree over the tree file at `path`: OK when it reports no
/// error, Corruption listing its findings otherwise.
inline Status CheckTreeFile(const std::string& path) {
  CheckReport report;
  CT_RETURN_NOT_OK(CheckTree(path, nullptr, &report));
  if (report.errors() == 0) return Status::OK();
  return Status::Corruption(report.ToString());
}

/// A leaf entry that a search or a leaf scan read, as a full-width point
/// (zero past the leaf's arity): what a test compares with the points it
/// built the tree from.
inline PointRecord EntryPoint(uint32_t view_id, uint8_t arity,
                              const char* entry) {
  PointRecord point;
  point.view_id = view_id;
  DecodeViewRecord(entry, arity, point.coords, &point.agg);
  return point;
}

/// The first `arity` coordinates of a leaf entry, as a group key.
inline std::vector<Coord> EntryKey(const char* entry, size_t arity) {
  std::vector<Coord> key(arity);
  for (size_t d = 0; d < arity; ++d) key[d] = ViewRecordCoord(entry, d);
  return key;
}

/// Every point of `tree`, leaf by leaf in pack order (see EntryPoint).
inline Result<std::vector<PointRecord>> ReadPoints(PackedRTree* tree) {
  std::vector<PointRecord> points;
  PackedRTree::Scanner scanner = tree->ScanAll();
  while (true) {
    const char* leaf = nullptr;
    CT_RETURN_NOT_OK(scanner.NextLeaf(&leaf));
    if (leaf == nullptr) return points;
    const uint8_t arity = RNodeArity(leaf);
    const char* entry = leaf + kRNodeHeaderSize;
    for (uint16_t i = 0; i < RNodeCount(leaf); ++i) {
      points.push_back(EntryPoint(RNodeViewId(leaf), arity, entry));
      entry += ViewRecordBytes(arity);
    }
  }
}

/// Rewrites the checksum sidecar of the page file at `path` over the
/// file's current bytes, so that a test's tampering passes the CRC checks
/// and reaches the structural ones.
inline Status ResignSidecar(const std::string& path) {
  CT_ASSIGN_OR_RETURN(std::unique_ptr<PageManager> file,
                      PageManager::Open(path));
  std::vector<uint32_t> crcs(file->NumPages());
  Page page;
  for (PageId id = 0; id < file->NumPages(); ++id) {
    CT_RETURN_NOT_OK(file->ReadPage(id, &page));
    crcs[id] = Crc32c(page.data, kPageSize);
  }
  return WriteChecksumSidecar(path, crcs);
}

}  // namespace cubetree

#endif  // CUBETREE_TESTS_TEST_UTIL_H_
