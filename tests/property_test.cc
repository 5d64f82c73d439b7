// Parameterized property tests: randomized workloads checked against
// reference implementations, swept across structural parameters
// (dimensionality, fill factors, memory budgets, key widths).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/rng.h"
#include "cubetree/merge_pack.h"
#include "cubetree/select_mapping.h"
#include "olap/cube_builder.h"
#include "rtree/packed_rtree.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

// --- Packed R-tree: (dims, points, leaf_fill, compress) sweep ------------

using RTreeParam = std::tuple<int, int, double, bool>;

class PackedRTreeProperty : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(PackedRTreeProperty, RangeQueriesMatchBruteForce) {
  const auto [dims, n, leaf_fill, compress] = GetParam();
  const std::string dir = MakeTestDir(
      "rtprop_" + std::to_string(dims) + "_" + std::to_string(n) + "_" +
      std::to_string(static_cast<int>(leaf_fill * 100)) +
      (compress ? "_c" : "_u"));

  // Random unique points of a single view with full arity. The per-axis
  // domain must comfortably exceed n^(1/dims) or unique draws run dry.
  Rng rng(dims * 1000 + n);
  const uint64_t domain =
      dims == 1 ? static_cast<uint64_t>(n) * 4 : (dims == 2 ? 400 : 200);
  std::set<std::vector<Coord>> seen;
  std::vector<PointRecord> points;
  while (points.size() < static_cast<size_t>(n)) {
    PointRecord rec;
    rec.view_id = 1;
    std::vector<Coord> key;
    for (int d = 0; d < dims; ++d) {
      rec.coords[d] = static_cast<Coord>(1 + rng.Uniform(domain));
      key.push_back(rec.coords[d]);
    }
    if (!seen.insert(key).second) continue;
    rec.agg = AggValue{static_cast<int64_t>(rng.Uniform(1000)), 1};
    points.push_back(rec);
  }
  std::sort(points.begin(), points.end(),
            [&](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, dims) < 0;
            });

  BufferPool pool(128);
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(dims);
  options.leaf_fill = leaf_fill;
  options.compress_leaves = compress;
  VectorPointSource source(points);
  ASSERT_OK_AND_ASSIGN(
      auto tree,
      PackedRTree::Build(dir + "/t.ctr", options, &pool, &source,
                         [dims](uint32_t) {
                           return static_cast<uint8_t>(dims);
                         }));
  ASSERT_EQ(tree->num_points(), points.size());

  // 25 random boxes: tree results must equal brute force exactly.
  for (int q = 0; q < 25; ++q) {
    Rect query;
    for (int d = 0; d < dims; ++d) {
      Coord a = static_cast<Coord>(1 + rng.Uniform(domain));
      Coord b = static_cast<Coord>(1 + rng.Uniform(domain));
      query.lo[d] = std::min(a, b);
      query.hi[d] = std::max(a, b);
    }
    int64_t expected_sum = 0;
    uint64_t expected_count = 0;
    for (const PointRecord& rec : points) {
      if (query.ContainsPoint(rec.coords, dims)) {
        expected_sum += rec.agg.sum;
        ++expected_count;
      }
    }
    int64_t sum = 0;
    uint64_t count = 0;
    ASSERT_OK(tree->Search(query, [&](const PointRecord& rec) {
      sum += rec.agg.sum;
      ++count;
    }));
    ASSERT_EQ(count, expected_count) << "query " << q;
    ASSERT_EQ(sum, expected_sum) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedRTreeProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(500, 5000),
                       ::testing::Values(0.5, 1.0),
                       ::testing::Bool()));

// --- External sorter: (record_size, budget) sweep ------------------------

using SorterParam = std::tuple<int, int>;

class SorterProperty : public ::testing::TestWithParam<SorterParam> {};

TEST_P(SorterProperty, SortsRandomInput) {
  const auto [record_size, budget] = GetParam();
  const std::string dir = MakeTestDir("sortprop_" +
                                      std::to_string(record_size) + "_" +
                                      std::to_string(budget));
  ExternalSorter::Options options;
  options.record_size = record_size;
  options.memory_budget_bytes = budget;
  options.temp_dir = dir;
  ExternalSorter sorter(options, {KeyField{0, 4}});
  Rng rng(record_size * 31 + budget);
  std::vector<uint32_t> keys;
  std::vector<char> record(record_size, 0);
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(1u << 24));
    keys.push_back(key);
    EncodeFixed32(record.data(), key);
    // Payload derived from the key, to verify records stay intact.
    if (record_size >= 8) {
      EncodeFixed32(record.data() + record_size - 4, key ^ 0xABCD);
    }
    ASSERT_OK(sorter.Add(record.data()));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::sort(keys.begin(), keys.end());
  const char* out = nullptr;
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(stream->Next(&out));
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(DecodeFixed32(out), keys[i]) << i;
    if (record_size >= 8) {
      ASSERT_EQ(DecodeFixed32(out + record_size - 4), keys[i] ^ 0xABCD);
    }
  }
  ASSERT_OK(stream->Next(&out));
  EXPECT_EQ(out, nullptr);
}

// Many records share each key; every record's bytes beyond the key must
// come out intact, whichever way the run sort moves them.
TEST_P(SorterProperty, EqualKeysKeepTheirPayloads) {
  const auto [record_size, budget] = GetParam();
  const std::string dir = MakeTestDir("sortdup_" +
                                      std::to_string(record_size) + "_" +
                                      std::to_string(budget));
  ExternalSorter::Options options;
  options.record_size = record_size;
  options.memory_budget_bytes = budget;
  options.temp_dir = dir;
  ExternalSorter sorter(options, {KeyField{0, 4}});
  Rng rng(record_size * 17 + budget);
  std::vector<std::string> records;
  for (uint32_t i = 0; i < 3000; ++i) {
    std::string record(record_size, '\0');
    EncodeFixed32(record.data(), static_cast<uint32_t>(rng.Uniform(8)));
    // A payload unique to this record fills the bytes past the key.
    for (int b = 4; b < record_size; ++b) {
      record[b] = static_cast<char>((i * 131 + b * 7) ^ (i >> 8));
    }
    if (record_size >= 8) EncodeFixed32(record.data() + 4, i);
    ASSERT_OK(sorter.Add(record.data()));
    records.push_back(std::move(record));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::vector<std::string> sorted;
  const char* out = nullptr;
  while (true) {
    ASSERT_OK(stream->Next(&out));
    if (out == nullptr) break;
    if (!sorted.empty()) {
      ASSERT_LE(DecodeFixed32(sorted.back().data()), DecodeFixed32(out));
    }
    sorted.emplace_back(out, record_size);
  }
  std::sort(records.begin(), records.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, records);
}

/// A sort key layout with the values its fields take.
struct KeyLayout {
  std::string name;
  std::vector<KeyField> key;
  /// Each field's values are drawn from [0, domain); 0 = full range.
  std::vector<uint64_t> domains;
};

/// Every layout the sorter serves that fits a record of `record_size`.
std::vector<KeyLayout> KeyLayoutsFitting(size_t record_size) {
  std::vector<KeyLayout> layouts;
  // View pack orders: 4-byte coordinates, the last most significant, with
  // full-range values so that no key byte is constant.
  for (uint8_t arity = 0; arity <= kMaxDims; ++arity) {
    if (arity * sizeof(Coord) > record_size) break;
    layouts.push_back({"view arity " + std::to_string(arity),
                       ViewRecordKey(arity),
                       std::vector<uint64_t>(arity, 0)});
  }
  // The conventional index key: 4-byte key parts, the first most
  // significant, over small domains so lower parts break ties.
  if (record_size >= 12) {
    layouts.push_back({"index key", {{0, 4}, {4, 4}, {8, 4}}, {5, 7, 1000}});
  }
  // One 8-byte field at the record's end, full range.
  if (record_size >= 8) {
    layouts.push_back(
        {"8-byte field", {{static_cast<uint32_t>(record_size - 8), 8}}, {0}});
  }
  // Long runs of equal keys.
  layouts.push_back({"equal keys", {{0, 4}}, {3}});
  // A leading byte with exactly two values, then a full-range field.
  if (record_size >= 8) {
    layouts.push_back({"two-valued byte", {{0, 4}, {4, 4}}, {2, 0}});
  }
  // Odd widths: a 3-byte field, then a 1-byte one.
  if (record_size >= 4) {
    layouts.push_back({"3+1-byte fields", {{1, 3}, {0, 1}}, {0, 0}});
  }
  return layouts;
}

uint64_t FieldOf(const char* record, const KeyField& f) {
  uint64_t v = 0;
  for (uint32_t i = f.width; i > 0; --i) {
    v = v << 8 | static_cast<unsigned char>(record[f.offset + i - 1]);
  }
  return v;
}

std::vector<uint64_t> KeyOf(const std::string& record,
                            const std::vector<KeyField>& key) {
  std::vector<uint64_t> out;
  for (const KeyField& f : key) out.push_back(FieldOf(record.data(), f));
  return out;
}

// Every key layout that fits the record, checked against std::stable_sort
// by key: the keys must come out in the same order, and within each key
// the same multiset of records (equal keys may come out in any order).
TEST_P(SorterProperty, KeyLayoutsMatchStableSort) {
  const auto [record_size, budget] = GetParam();
  const size_t n = record_size >= 1000 ? 300 : 3000;
  for (const KeyLayout& layout : KeyLayoutsFitting(record_size)) {
    SCOPED_TRACE(layout.name);
    const std::string dir = MakeTestDir(
        "sortlayout_" + std::to_string(record_size) + "_" +
        std::to_string(budget));
    ExternalSorter::Options options;
    options.record_size = record_size;
    options.memory_budget_bytes = budget;
    options.temp_dir = dir;
    ExternalSorter sorter(options, layout.key);
    Rng rng(record_size * 7 + budget + layout.key.size());
    std::vector<std::string> records;
    for (size_t i = 0; i < n; ++i) {
      std::string record(record_size, '\0');
      for (char& c : record) c = static_cast<char>(rng.Uniform(256));
      for (size_t f = 0; f < layout.key.size(); ++f) {
        const KeyField& field = layout.key[f];
        uint64_t v = rng.Next();
        if (layout.domains[f] != 0) v %= layout.domains[f];
        for (uint32_t b = 0; b < field.width; ++b) {
          record[field.offset + b] = static_cast<char>(v >> (8 * b));
        }
      }
      ASSERT_OK(sorter.Add(record.data()));
      records.push_back(std::move(record));
    }
    const bool spills =
        n * record_size > std::max<size_t>(budget, 64 * record_size);
    EXPECT_EQ(sorter.num_runs() > 0, spills);
    ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
    std::vector<std::string> sorted;
    const char* out = nullptr;
    while (true) {
      ASSERT_OK(stream->Next(&out));
      if (out == nullptr) break;
      sorted.emplace_back(out, record_size);
    }
    std::vector<std::pair<std::vector<uint64_t>, std::string>> expected;
    for (std::string& record : records) {
      expected.emplace_back(KeyOf(record, layout.key), std::move(record));
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(sorted.size(), expected.size());
    size_t begin = 0;
    while (begin < expected.size()) {
      const std::vector<uint64_t>& key = expected[begin].first;
      std::vector<std::string> want;
      std::vector<std::string> got;
      for (size_t i = begin;
           i < expected.size() && expected[i].first == key; ++i) {
        ASSERT_EQ(KeyOf(sorted[i], layout.key), key) << "record " << i;
        want.push_back(expected[i].second);
        got.push_back(sorted[i]);
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "records from " << begin;
      begin += want.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SorterProperty,
    ::testing::Combine(::testing::Values(4, 8, 24, 100),
                       ::testing::Values(128, 4096, 1 << 20)));

// The widths of view records of arity 0..8 (12 + 4 x arity bytes), then
// 48.
INSTANTIATE_TEST_SUITE_P(
    RecordWidths, SorterProperty,
    ::testing::Combine(::testing::Values(12, 16, 20, 24, 28, 32, 36, 40, 44,
                                         48),
                       ::testing::Values(128, 1 << 20)));

// Record widths from 4 bytes to a page, with a budget that spills and one
// that holds every record.
INSTANTIATE_TEST_SUITE_P(
    PageWidths, SorterProperty,
    ::testing::Combine(::testing::Values(4, 100, 1000,
                                         static_cast<int>(kPageSize)),
                       ::testing::Values(128, 1 << 22)));

// --- B+-tree: key_parts sweep against std::map ---------------------------

class BTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(BTreeProperty, RandomOpsMatchReference) {
  const int key_parts = GetParam();
  const std::string dir = MakeTestDir("btprop_" + std::to_string(key_parts));
  BufferPool pool(64);
  BTreeOptions options;
  options.key_parts = static_cast<uint8_t>(key_parts);
  options.value_size = 8;
  ASSERT_OK_AND_ASSIGN(auto tree, BPlusTree::Create(dir + "/t.idx", options,
                                                    &pool));
  Rng rng(key_parts * 7);
  std::map<std::vector<uint32_t>, uint64_t> reference;
  char value[8];
  char out[8];
  for (int op = 0; op < 8000; ++op) {
    std::vector<uint32_t> key(key_parts);
    for (int i = 0; i < key_parts; ++i) {
      key[i] = static_cast<uint32_t>(rng.Uniform(16));
    }
    const int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0) {  // Insert.
      const uint64_t v = rng.Next();
      EncodeFixed64(value, v);
      Status st = tree->Insert(key.data(), value);
      if (reference.count(key)) {
        ASSERT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        reference[key] = v;
      }
    } else if (kind == 1) {  // Lookup.
      ASSERT_OK_AND_ASSIGN(bool found, tree->Lookup(key.data(), out));
      ASSERT_EQ(found, reference.count(key) > 0);
      if (found) {
        ASSERT_EQ(DecodeFixed64(out), reference[key]);
      }
    } else {  // Update.
      const uint64_t v = rng.Next();
      EncodeFixed64(value, v);
      Status st = tree->Update(key.data(), value);
      if (reference.count(key)) {
        ASSERT_TRUE(st.ok());
        reference[key] = v;
      } else {
        ASSERT_TRUE(st.IsNotFound());
      }
    }
  }
  ASSERT_EQ(tree->num_entries(), reference.size());
  // Full scan equals the reference in order.
  std::vector<uint32_t> low(key_parts, 0), high(key_parts, 0xFFFFFFFFu);
  BPlusTree::Iterator it = tree->Scan(low.data(), high.data());
  auto expect = reference.begin();
  while (true) {
    const uint32_t* key = nullptr;
    const char* val = nullptr;
    ASSERT_OK(it.Next(&key, &val));
    if (key == nullptr) break;
    ASSERT_NE(expect, reference.end());
    ASSERT_TRUE(std::equal(key, key + key_parts, expect->first.begin()));
    ASSERT_EQ(DecodeFixed64(val), expect->second);
    ++expect;
  }
  ASSERT_EQ(expect, reference.end());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 8));

// --- Merge-pack: repeated random deltas against a reference map ----------

class MergePackProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergePackProperty, RepeatedDeltasConverge) {
  const int dims = GetParam();
  const std::string dir = MakeTestDir("mpprop_" + std::to_string(dims));
  BufferPool pool(64);
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(dims);

  Rng rng(dims * 13);
  std::map<std::vector<Coord>, AggValue> reference;
  std::unique_ptr<PackedRTree> tree;
  auto arity_fn = [dims](uint32_t) { return static_cast<uint8_t>(dims); };

  for (int round = 0; round < 6; ++round) {
    // Random delta (unique keys within the delta, overlapping across
    // rounds).
    std::map<std::vector<Coord>, AggValue> delta;
    for (int i = 0; i < 400; ++i) {
      std::vector<Coord> key(dims);
      for (int d = 0; d < dims; ++d) {
        key[d] = static_cast<Coord>(1 + rng.Uniform(30));
      }
      AggValue agg{static_cast<int64_t>(rng.Uniform(100)), 1};
      delta[key].Merge(agg);
    }
    std::vector<PointRecord> delta_points;
    for (const auto& [key, agg] : delta) {
      PointRecord rec;
      rec.view_id = 1;
      for (int d = 0; d < dims; ++d) rec.coords[d] = key[d];
      rec.agg = agg;
      delta_points.push_back(rec);
      reference[key].Merge(agg);
    }
    std::sort(delta_points.begin(), delta_points.end(),
              [&](const PointRecord& a, const PointRecord& b) {
                return PackOrderCompare(a.coords, b.coords, dims) < 0;
              });
    VectorPointSource delta_source(std::move(delta_points));
    const std::string path =
        dir + "/t_g" + std::to_string(round) + ".ctr";
    ASSERT_OK_AND_ASSIGN(
        auto merged, MergePack(tree.get(), &delta_source, path, options,
                               &pool, arity_fn));
    tree = std::move(merged);
    ASSERT_EQ(tree->num_points(), reference.size()) << "round " << round;
  }

  // Final content equals the reference exactly.
  auto scanner = tree->ScanAll();
  size_t count = 0;
  while (true) {
    const PointRecord* rec = nullptr;
    ASSERT_OK(scanner.Next(&rec));
    if (rec == nullptr) break;
    std::vector<Coord> key(rec->coords, rec->coords + dims);
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(rec->agg, it->second);
    ++count;
  }
  ASSERT_EQ(count, reference.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MergePackProperty,
                         ::testing::Values(1, 2, 3, 5));

// --- Multi-view trees: one view per arity, Build -> scan -> merge-pack ----

// A `dims`-dimensional tree holding one view of every arity 0..dims (view
// 100 + a has arity a), so each leaf arity the bulk load, the leaf-page scan
// and the merge compile is exercised in one file. Every point and every box
// answer is compared with a std::map reference.
class MultiViewTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(MultiViewTreeProperty, BuildScanAndMergePackMatchReference) {
  const int dims = GetParam();
  const std::string dir = MakeTestDir("mvprop_" + std::to_string(dims));
  BufferPool pool(64);
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(dims);
  // Small nodes: views span several leaf pages under internal levels.
  options.max_leaf_entries = 40;
  options.max_internal_entries = 8;
  const auto arity_fn = [](uint32_t view) {
    return static_cast<uint8_t>(view - 100);
  };
  Rng rng(dims * 7919 + 5);
  // Coordinate 0 ranges over 1..400, the others over 1..6, so every view of
  // arity >= 1 has hundreds of distinct keys.
  const auto domain = [](int d) -> Coord { return d == 0 ? 400 : 6; };

  // Keys list the coordinates most significant first, so map order is pack
  // order.
  using Key = std::vector<Coord>;
  const auto key_of = [dims](const PointRecord& rec) {
    Key key(dims);
    for (int d = 0; d < dims; ++d) key[d] = rec.coords[dims - 1 - d];
    return key;
  };
  // `per_view` random points of each view (duplicates combined), in pack
  // order. Arity 0 has a single key, the origin.
  const auto draw = [&](int per_view) {
    std::map<Key, PointRecord> batch;
    for (int arity = 0; arity <= dims; ++arity) {
      for (int i = 0; i < per_view; ++i) {
        PointRecord rec;
        rec.view_id = 100 + arity;
        for (int d = 0; d < arity; ++d) {
          rec.coords[d] = static_cast<Coord>(1 + rng.Uniform(domain(d)));
        }
        rec.agg = AggValue{static_cast<int64_t>(rng.Uniform(1000)) - 500, 1};
        auto [it, inserted] = batch.emplace(key_of(rec), rec);
        if (!inserted) it->second.agg.Merge(rec.agg);
      }
    }
    std::vector<PointRecord> points;
    for (const auto& entry : batch) points.push_back(entry.second);
    return points;
  };

  std::map<Key, PointRecord> reference;
  const auto add_to_reference = [&](const std::vector<PointRecord>& points) {
    for (const PointRecord& rec : points) {
      auto [it, inserted] = reference.emplace(key_of(rec), rec);
      if (!inserted) it->second.agg.Merge(rec.agg);
    }
  };
  const auto expect_same = [](const PointRecord& got,
                              const PointRecord& want) {
    ASSERT_EQ(got.view_id, want.view_id);
    for (size_t d = 0; d < kMaxDims; ++d) {
      ASSERT_EQ(got.coords[d], want.coords[d]) << "coordinate " << d;
    }
    ASSERT_EQ(got.agg, want.agg);
  };
  const auto check = [&](PackedRTree* tree) {
    ASSERT_OK(tree->Validate());
    ASSERT_EQ(tree->num_points(), reference.size());
    // The scan yields every point, in pack order.
    auto scanner = tree->ScanAll();
    auto want = reference.begin();
    while (true) {
      const PointRecord* rec = nullptr;
      ASSERT_OK(scanner.Next(&rec));
      if (rec == nullptr) break;
      ASSERT_NE(want, reference.end());
      ASSERT_NO_FATAL_FAILURE(expect_same(*rec, want->second));
      ++want;
    }
    ASSERT_EQ(want, reference.end());
    // Random boxes; a range that includes 0 reaches lower-arity views.
    for (int q = 0; q < 40; ++q) {
      Rect box;
      for (int d = 0; d < dims; ++d) {
        const Coord a = static_cast<Coord>(rng.Uniform(domain(d) + 1));
        const Coord b = static_cast<Coord>(rng.Uniform(domain(d) + 1));
        box.lo[d] = std::min(a, b);
        box.hi[d] = std::max(a, b);
      }
      std::map<Key, PointRecord> found;
      ASSERT_OK(tree->Search(box, [&](const PointRecord& rec) {
        EXPECT_TRUE(found.emplace(key_of(rec), rec).second) << "emitted twice";
      }));
      size_t expected = 0;
      for (const auto& [key, rec] : reference) {
        if (!box.ContainsPoint(rec.coords, dims)) continue;
        ++expected;
        auto it = found.find(key);
        ASSERT_NE(it, found.end()) << "box " << q << " missed a point of view "
                                   << rec.view_id;
        ASSERT_NO_FATAL_FAILURE(expect_same(it->second, rec));
      }
      ASSERT_EQ(found.size(), expected) << "box " << q;
    }
  };

  std::vector<PointRecord> initial = draw(150);
  add_to_reference(initial);
  VectorPointSource source(std::move(initial));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PackedRTree> tree,
      PackedRTree::Build(dir + "/t.ctr", options, &pool, &source, arity_fn));
  {
    SCOPED_TRACE("after Build");
    ASSERT_NO_FATAL_FAILURE(check(tree.get()));
  }
  for (int round = 0; round < 3; ++round) {
    // Deltas both combine with stored keys and add new ones.
    std::vector<PointRecord> delta = draw(40);
    add_to_reference(delta);
    VectorPointSource delta_source(std::move(delta));
    ASSERT_OK_AND_ASSIGN(
        tree, MergePack(tree.get(), &delta_source,
                        dir + "/t_g" + std::to_string(round) + ".ctr",
                        options, &pool, arity_fn));
    SCOPED_TRACE("after merge-pack round " + std::to_string(round));
    ASSERT_NO_FATAL_FAILURE(check(tree.get()));
  }
}

INSTANTIATE_TEST_SUITE_P(EveryArity, MultiViewTreeProperty,
                         ::testing::Range(1, 9));

// --- SelectMapping invariants over random view sets ----------------------

class SelectMappingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SelectMappingProperty, InvariantsHoldOnRandomViewSets) {
  const int seed = GetParam();
  Rng rng(seed);
  const size_t num_views = 1 + rng.Uniform(20);
  std::vector<ViewDef> views;
  std::vector<size_t> arity_histogram(kMaxDims + 1, 0);
  for (size_t i = 0; i < num_views; ++i) {
    ViewDef v;
    v.id = static_cast<uint32_t>(i);
    const size_t arity = rng.Uniform(kMaxDims + 1);
    for (size_t a = 0; a < arity; ++a) {
      v.attrs.push_back(static_cast<uint32_t>(a));
    }
    ++arity_histogram[arity];
    views.push_back(std::move(v));
  }
  ForestPlan plan = SelectMapping(views);

  // 1. Every view is placed exactly once.
  ASSERT_EQ(plan.view_to_tree.size(), views.size());
  size_t placed = 0;
  for (const auto& tree : plan.trees) placed += tree.view_ids.size();
  ASSERT_EQ(placed, views.size());

  // 2. Minimality: tree count equals the largest arity class.
  const size_t max_class =
      *std::max_element(arity_histogram.begin(), arity_histogram.end());
  ASSERT_EQ(plan.trees.size(), max_class);

  // 3. No tree holds two views of the same arity, and each tree's dims is
  //    the max arity of its views (at least 1).
  for (const auto& tree : plan.trees) {
    std::set<uint8_t> arities;
    uint8_t max_arity = 0;
    for (uint32_t vid : tree.view_ids) {
      const ViewDef& v = views[vid];
      ASSERT_TRUE(arities.insert(v.arity()).second);
      max_arity = std::max(max_arity, v.arity());
    }
    ASSERT_EQ(tree.dims, std::max<uint8_t>(1, max_arity));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SelectMappingProperty,
                         ::testing::Range(1, 25));

}  // namespace
}  // namespace cubetree
