#ifndef CUBETREE_TESTS_FOREST_FIXTURE_H_
#define CUBETREE_TESTS_FOREST_FIXTURE_H_

// The forest suites' shared fixture: the paper's four-view example, an
// in-memory ViewDataProvider, the standard base load and delta, and the
// post-fault checks the crash and disk-full sweeps share.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "cubetree/cubetree.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {

/// The paper's running example: V1{partkey,suppkey}, V2{suppkey,custkey},
/// V3{partkey}, V4{} — two trees after SelectMapping.
inline std::vector<ViewDef> PaperViews() {
  return {MakeView(1, {0, 1}), MakeView(2, {1, 2}), MakeView(3, {0}),
          MakeView(4, {})};
}

/// In-memory ViewDataProvider: per-view vectors of records, sorted into
/// pack order on demand.
class VectorViewProvider : public CubetreeForest::ViewDataProvider {
 public:
  void Add(const ViewDef& view, std::vector<Coord> coords, AggValue agg) {
    auto& rows = data_[view.id];
    std::vector<char> rec(ViewRecordBytes(view.arity()));
    coords.resize(kMaxDims, 0);
    EncodeViewRecord(rec.data(), coords.data(), view.arity(), agg);
    rows.push_back(std::move(rec));
  }

  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override {
    auto rows = data_[view.id];  // Copy.
    const uint8_t arity = view.arity();
    std::sort(rows.begin(), rows.end(),
              [arity](const std::vector<char>& a, const std::vector<char>& b) {
                return DispatchArity(arity, [&](auto n) {
                         return ViewRecordCompare<decltype(n)::value>(
                             a.data(), b.data());
                       }) < 0;
              });
    std::vector<char> flat;
    for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
    return std::unique_ptr<RecordStream>(
        new MemoryRecordStream(std::move(flat), ViewRecordBytes(arity)));
  }

  uint64_t EstimatedInputBytes() const override {
    uint64_t total = 0;
    for (const auto& [id, rows] : data_) {
      for (const auto& r : rows) total += r.size();
    }
    return total;
  }

 private:
  std::map<uint32_t, std::vector<std::vector<char>>> data_;
};

inline void FillBase(VectorViewProvider* p, const std::vector<ViewDef>& views) {
  int64_t total = 0;
  for (uint32_t a = 1; a <= 12; ++a) {
    for (uint32_t b = 1; b <= 4; ++b) {
      p->Add(views[0], {a, b}, AggValue{int64_t(a * 100 + b), 1});
      p->Add(views[1], {b, a}, AggValue{int64_t(b * 10 + a), 1});
    }
    p->Add(views[2], {a}, AggValue{int64_t(a), 1});
    total += a;
  }
  p->Add(views[3], {}, AggValue{total, 12});
}

/// Half-overlapping delta: merges with existing groups and adds fresh ones.
inline void FillDelta(VectorViewProvider* p,
                      const std::vector<ViewDef>& views) {
  for (uint32_t a = 7; a <= 18; ++a) {
    p->Add(views[0], {a, 2}, AggValue{int64_t(a), 1});
    p->Add(views[1], {2, a}, AggValue{int64_t(a * 2), 1});
    p->Add(views[2], {a}, AggValue{int64_t(a * 3), 1});
  }
  p->Add(views[3], {}, AggValue{99, 12});
}

inline CubetreeForest::Options ForestOptions(const std::string& dir) {
  CubetreeForest::Options options;
  options.dir = dir;
  options.name = "f";
  return options;
}

/// The standard load: a fresh Create + Build of the paper forest over
/// `dir` with the base data, packed at the CUBETREE_REFRESH_THREADS width.
/// The forest is closed again.
inline Status LoadBaseForest(const std::string& dir) {
  BufferPool pool(256);
  CT_ASSIGN_OR_RETURN(auto forest,
                      CubetreeForest::Create(ForestOptions(dir), &pool));
  VectorViewProvider provider;
  FillBase(&provider, PaperViews());
  return forest->Build(PaperViews(), &provider);
}

inline void BuildBaseForest(const std::string& dir) {
  ASSERT_OK(LoadBaseForest(dir));
}

/// Forest contents as one sorted list of "view:coords=sum:count" strings,
/// aggregated by group key so main+delta splits compare equal to merged
/// trees. Directory-independent, so snapshots from different dirs compare.
using Contents = std::vector<std::string>;

inline Contents Dump(CubetreeForest* forest) {
  std::map<std::string, std::pair<int64_t, uint64_t>> groups;
  const ForestSnapshot snap = forest->AcquireSnapshot();
  for (const ViewDef& view : forest->views()) {
    EXPECT_FALSE(snap.IsViewQuarantined(view.id)) << view.id;
    auto tree_result = snap.TreeForView(view.id);
    EXPECT_TRUE(tree_result.ok()) << tree_result.status().ToString();
    if (!tree_result.ok()) continue;
    std::vector<std::optional<Coord>> open(view.arity(), std::nullopt);
    EXPECT_OK(tree_result.value()->QuerySlice(
        view.id, open, [&](uint32_t, uint8_t arity, const char* entry) {
          std::string key = std::to_string(view.id);
          for (size_t i = 0; i < view.arity(); ++i) {
            key += "," + std::to_string(ViewRecordCoord(entry, i));
          }
          auto& group = groups[key];
          group.first += ViewRecordAgg(entry, arity).sum;
          group.second += ViewRecordAgg(entry, arity).count;
        }));
  }
  Contents out;
  for (const auto& [key, agg] : groups) {
    out.push_back(key + "=" + std::to_string(agg.first) + ":" +
                  std::to_string(agg.second));
  }
  return out;
}

/// Reference snapshots, computed once in a scratch dir with no faults
/// armed: the forest contents before and after the standard refresh.
struct Snapshots {
  Contents before;
  Contents after;
};

inline const Snapshots& ReferenceSnapshots() {
  static const Snapshots* snapshots = [] {
    // ct-lint: allow(no-naked-new)
    auto* s = new Snapshots();  // Intentionally leaked static snapshot.
    const std::string dir = MakeTestDir("forest_reference");
    BuildBaseForest(dir);
    BufferPool pool(256);
    auto forest =
        std::move(CubetreeForest::Open(ForestOptions(dir), &pool).value());
    s->before = Dump(forest.get());
    VectorViewProvider delta;
    FillDelta(&delta, PaperViews());
    EXPECT_OK(forest->ApplyDelta(&delta));
    s->after = Dump(forest.get());
    return s;
  }();
  return *snapshots;
}

/// Every regular file name under `dir`.
inline std::set<std::string> ListFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) names.insert(entry.path().filename());
  }
  return names;
}

/// Files a cleanly-aborted refresh may legitimately add: a not-yet-renamed
/// manifest draft, removed by the next Recover. Anything else new — a pack
/// file, a sidecar, a sorter run — is a leaked partial file.
inline bool AllowedAbortResidue(const std::string& name) {
  return name.ends_with(".manifest.tmp");
}

/// Post-fault invariant: Recover succeeds with nothing quarantined,
/// contents equal exactly one generation, CheckForest reports no error, and a
/// second Recover finds nothing to do. Returns the recovered contents for
/// the caller's old/new dispatch.
inline Contents ExpectRecoversToOldOrNew(const std::string& dir,
                                         const std::string& at) {
  const Snapshots& expected = ReferenceSnapshots();
  Contents contents;
  {
    BufferPool pool(256);
    ForestRecoveryReport report;
    auto recovered =
        CubetreeForest::Recover(ForestOptions(dir), &pool, nullptr, &report);
    EXPECT_TRUE(recovered.ok()) << at << ": " << recovered.status().ToString();
    if (!recovered.ok()) return contents;
    EXPECT_TRUE(report.quarantined_trees.empty())
        << at << ": " << report.ToString();
    contents = Dump(recovered.value().get());
    EXPECT_TRUE(contents == expected.before || contents == expected.after)
        << at << ": recovered contents match neither generation ("
        << contents.size() << " groups vs " << expected.before.size()
        << " before / " << expected.after.size() << " after)";
  }
  {
    BufferPool pool(256);
    CheckReport report;
    EXPECT_OK(CheckForest(dir, "f", &pool, &report));
    EXPECT_EQ(report.errors(), 0u) << at << ":\n" << report.ToString();
  }
  {
    BufferPool pool(256);
    ForestRecoveryReport second;
    auto again =
        CubetreeForest::Recover(ForestOptions(dir), &pool, nullptr, &second);
    EXPECT_TRUE(again.ok()) << at << ": " << again.status().ToString();
    if (again.ok()) {
      EXPECT_TRUE(second.clean())
          << at << ": recovery is not idempotent — " << second.ToString();
    }
  }
  return contents;
}

/// Post-fault invariant of an interrupted load (LoadBaseForest into an
/// empty `dir`): either it committed, and the store recovers to the base
/// contents checker-clean, or nothing of it is left. After an injected
/// error the abort sweep ran, so no tree file, sidecar or manifest may
/// remain (a manifest draft excepted). After a crash (`crashed`) it did
/// not, so the debris is whatever the load had written. Either way a fresh
/// load over the same directory must then succeed, and a following Recover
/// must find nothing to sweep.
inline void ExpectLoadCommittedOrGone(const std::string& dir, bool crashed,
                                      const std::string& at) {
  if (FileExists(dir + "/f.manifest")) {
    EXPECT_EQ(ExpectRecoversToOldOrNew(dir, at), ReferenceSnapshots().before)
        << at << ": a committed load must hold the base contents";
    return;
  }
  if (!crashed) {
    for (const std::string& name : ListFiles(dir)) {
      EXPECT_TRUE(AllowedAbortResidue(name))
          << at << ": aborted load left " << name;
    }
  }
  ASSERT_OK(LoadBaseForest(dir));
  BufferPool pool(256);
  ForestRecoveryReport report;
  auto recovered =
      CubetreeForest::Recover(ForestOptions(dir), &pool, nullptr, &report);
  ASSERT_TRUE(recovered.ok()) << at << ": " << recovered.status().ToString();
  EXPECT_TRUE(report.clean()) << at << ": " << report.ToString();
  EXPECT_EQ(Dump(recovered.value().get()), ReferenceSnapshots().before) << at;
}

/// A load sweep must fire all 17 failpoints the load crosses — a sweep
/// where nothing fires would silently test nothing — among them the four
/// it reaches only through the refresh transaction: the disk-space
/// preflight, the per-tree pack and the post-commit publish.
inline void ExpectLoadSweepFired(const std::set<std::string>& fired) {
  EXPECT_GE(fired.size(), 17u) << "only " << fired.size()
                               << " failpoints fired during the load";
  for (const char* point : {"disk.probe", "disk.preflight",
                            "forest.refresh.build", "forest.refresh.commit"}) {
    EXPECT_EQ(fired.count(point), 1u) << point << " never fired in the load";
  }
}

}  // namespace cubetree

#endif  // CUBETREE_TESTS_FOREST_FIXTURE_H_
