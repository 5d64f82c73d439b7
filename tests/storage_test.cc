#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fault/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/io_stats.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

TEST(PageManagerTest, CreateAllocateReadWrite) {
  const std::string dir = MakeTestDir("pm_basic");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  EXPECT_EQ(pm->NumPages(), 0u);

  ASSERT_OK_AND_ASSIGN(PageId id, pm->AllocatePage());
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(pm->NumPages(), 1u);

  Page page;
  page.Zero();
  std::strcpy(page.data, "hello cubetree");
  ASSERT_OK(pm->WritePage(id, page));

  Page read;
  ASSERT_OK(pm->ReadPage(id, &read));
  EXPECT_STREQ(read.data, "hello cubetree");
}

TEST(PageManagerTest, ReadPastEndFails) {
  const std::string dir = MakeTestDir("pm_oob");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Page page;
  EXPECT_TRUE(pm->ReadPage(3, &page).IsInvalidArgument());
  EXPECT_TRUE(pm->WritePage(0, page).IsInvalidArgument());
}

TEST(PageManagerTest, ReopenPreservesContents) {
  const std::string dir = MakeTestDir("pm_reopen");
  const std::string path = dir + "/f.pg";
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(path));
    Page page;
    page.Zero();
    page.data[0] = 'x';
    ASSERT_OK(pm->AppendPage(page).status());
    page.data[0] = 'y';
    ASSERT_OK(pm->AppendPage(page).status());
    ASSERT_OK(pm->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
  EXPECT_EQ(pm->NumPages(), 2u);
  Page page;
  ASSERT_OK(pm->ReadPage(1, &page));
  EXPECT_EQ(page.data[0], 'y');
}

TEST(PageManagerTest, OpenMissingFileFails) {
  const std::string dir = MakeTestDir("pm_missing");
  EXPECT_FALSE(PageManager::Open(dir + "/nope.pg").ok());
}

TEST(PageManagerTest, AppendsCountAsSequentialWrites) {
  const std::string dir = MakeTestDir("pm_seq");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg", stats));
  Page page;
  page.Zero();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(pm->AppendPage(page).status());
  }
  EXPECT_EQ(stats->sequential_writes, 10u);
  EXPECT_EQ(stats->random_writes, 0u);
}

TEST(PageManagerTest, OutOfOrderWritesCountAsRandom) {
  const std::string dir = MakeTestDir("pm_rand");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg", stats));
  Page page;
  page.Zero();
  for (int i = 0; i < 4; ++i) ASSERT_OK(pm->AppendPage(page).status());
  stats->Clear();
  ASSERT_OK(pm->WritePage(3, page));  // Jump from frontier: random.
  ASSERT_OK(pm->WritePage(0, page));  // Backwards: random.
  ASSERT_OK(pm->WritePage(1, page));  // Follows 0: sequential.
  EXPECT_EQ(stats->random_writes, 2u);
  EXPECT_EQ(stats->sequential_writes, 1u);
}

TEST(PageManagerTest, SequentialVsRandomReadsClassified) {
  const std::string dir = MakeTestDir("pm_reads");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg", stats));
  Page page;
  page.Zero();
  for (int i = 0; i < 8; ++i) ASSERT_OK(pm->AppendPage(page).status());
  stats->Clear();
  for (PageId i = 0; i < 8; ++i) ASSERT_OK(pm->ReadPage(i, &page));
  // First read is "random" (no predecessor), the other 7 sequential.
  EXPECT_EQ(stats->sequential_reads, 7u);
  EXPECT_EQ(stats->random_reads, 1u);
  ASSERT_OK(pm->ReadPage(2, &page));
  EXPECT_EQ(stats->random_reads, 2u);
}

TEST(IoStatsTest, ArithmeticAndTotals) {
  IoStats a{10, 2, 5, 1};
  IoStats b{1, 1, 1, 1};
  a += b;
  EXPECT_EQ(a.sequential_reads, 11u);
  EXPECT_EQ(a.TotalReads(), 14u);
  EXPECT_EQ(a.TotalWrites(), 8u);
  IoStats d = a - b;
  EXPECT_EQ(d.sequential_reads, 10u);
  EXPECT_EQ(d.TotalOps(), 18u);
  EXPECT_EQ(d.TotalBytes(), 18u * kPageSize);
}

TEST(DiskModelTest, SequentialCheaperThanRandom) {
  DiskModel disk;
  IoStats seq{1000, 0, 0, 0};
  IoStats rnd{0, 1000, 0, 0};
  EXPECT_LT(disk.ModeledSeconds(seq), disk.ModeledSeconds(rnd));
  // 1000 random accesses at 10ms seek each dominate.
  EXPECT_GT(disk.ModeledSeconds(rnd), 10.0);
  EXPECT_LT(disk.ModeledSeconds(seq), 1.1);
}

TEST(BufferPoolTest, FetchCachesPages) {
  const std::string dir = MakeTestDir("bp_cache");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg", stats));
  BufferPool pool(8);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.New(pm.get()));
    h.data()[0] = 'a';
    h.MarkDirty();
  }
  stats->Clear();
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(pm.get(), 0));
    EXPECT_EQ(h.data()[0], 'a');
  }
  // All hits: no physical reads.
  EXPECT_EQ(stats->TotalReads(), 0u);
  EXPECT_EQ(pool.stats().hits, 5u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  const std::string dir = MakeTestDir("bp_evict");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.New(pm.get()));
    h.data()[0] = static_cast<char>('a' + i);
    h.MarkDirty();
  }
  // Pages 0 and 1 must have been evicted (and written back).
  ASSERT_OK_AND_ASSIGN(PageHandle h0, pool.Fetch(pm.get(), 0));
  EXPECT_EQ(h0.data()[0], 'a');
  ASSERT_OK_AND_ASSIGN(PageHandle h1, pool.Fetch(pm.get(), 1));
  EXPECT_EQ(h1.data()[0], 'b');
  EXPECT_GE(pool.stats().evictions, 2u);
  EXPECT_GE(pool.stats().dirty_writebacks, 2u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  const std::string dir = MakeTestDir("bp_pin");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(2);
  ASSERT_OK_AND_ASSIGN(PageHandle a, pool.New(pm.get()));
  ASSERT_OK_AND_ASSIGN(PageHandle b, pool.New(pm.get()));
  // Both frames pinned: a third page cannot be brought in.
  auto r = pool.New(pm.get());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  a.Release();
  ASSERT_OK(pool.New(pm.get()).status());
}

TEST(BufferPoolTest, PinnedPagesCountsLiveHandles) {
  const std::string dir = MakeTestDir("bp_pinned");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  ASSERT_OK(pm->AllocatePage().status());
  BufferPool pool(16);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.Fetch(pm.get(), 0));
    EXPECT_EQ(pool.PinnedPages(), 1u);
    handle.Release();
    EXPECT_EQ(pool.PinnedPages(), 0u);
    ASSERT_OK_AND_ASSIGN(PageHandle again, pool.Fetch(pm.get(), 0));
    EXPECT_EQ(pool.PinnedPages(), 1u);
  }
  // A handle going out of scope unpins its frame.
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyPages) {
  const std::string dir = MakeTestDir("bp_flush");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(4);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.New(pm.get()));
    h.data()[5] = 'z';
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  Page raw;
  ASSERT_OK(pm->ReadPage(0, &raw));
  EXPECT_EQ(raw.data[5], 'z');
}

TEST(BufferPoolTest, DropFileEvictsAllItsPages) {
  const std::string dir = MakeTestDir("bp_drop");
  ASSERT_OK_AND_ASSIGN(auto pm1, PageManager::Create(dir + "/a.pg"));
  ASSERT_OK_AND_ASSIGN(auto pm2, PageManager::Create(dir + "/b.pg"));
  BufferPool pool(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(pool.New(pm1.get()).status());
    ASSERT_OK(pool.New(pm2.get()).status());
  }
  ASSERT_OK(pool.DropFile(pm1.get()));
  // pm2's pages still cached; pm1's gone: refetching pm1 pages re-reads.
  auto stats_before = pool.stats();
  ASSERT_OK(pool.Fetch(pm1.get(), 0).status());
  EXPECT_EQ(pool.stats().misses, stats_before.misses + 1);
  ASSERT_OK(pool.Fetch(pm2.get(), 0).status());
  EXPECT_EQ(pool.stats().hits, stats_before.hits + 1);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  const std::string dir = MakeTestDir("bp_lru");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(3);
  for (int i = 0; i < 3; ++i) ASSERT_OK(pool.New(pm.get()).status());
  // Touch 0 and 2 so page 1 is the LRU victim.
  ASSERT_OK(pool.Fetch(pm.get(), 0).status());
  ASSERT_OK(pool.Fetch(pm.get(), 2).status());
  ASSERT_OK(pool.New(pm.get()).status());  // Evicts page 1.
  auto before = pool.stats();
  ASSERT_OK(pool.Fetch(pm.get(), 0).status());
  ASSERT_OK(pool.Fetch(pm.get(), 2).status());
  EXPECT_EQ(pool.stats().hits, before.hits + 2);
  ASSERT_OK(pool.Fetch(pm.get(), 1).status());
  EXPECT_EQ(pool.stats().misses, before.misses + 1);
}

TEST(BufferPoolTest, HitRatioComputed) {
  BufferPoolStats stats;
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.75);
  stats.Clear();
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.0);
}

// --- Short-read error context (end-to-end integrity satellite) ----------

TEST(PageManagerTest, ShortReadCorruptionCarriesContextAndOffset) {
  const std::string dir = MakeTestDir("pm_short_read");
  const std::string path = dir + "/short.bin";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> bytes(100, 'z');
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  char buf[256];
  Status status = PreadFully(fd, buf, sizeof(buf), 50, path);
  ::close(fd);
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  // A truncated read must identify the file, the requested byte range and
  // how far it got — an operator chasing corruption needs all three.
  const std::string text = status.ToString();
  EXPECT_NE(text.find(path), std::string::npos) << text;
  EXPECT_NE(text.find("offset 50"), std::string::npos) << text;
  EXPECT_NE(text.find("got 50"), std::string::npos) << text;
}

// A page read that comes up short and a page write the volume refuses name
// the file, the byte range and the outcome in the same words whether the
// page moved alone or in an extent. The "pread <path>" and "pwrite <path>"
// labels are built only when a call fails.
TEST(PageManagerTest, ShortPageReadNamesFileAndRange) {
  const std::string dir = MakeTestDir("pm_short_page");
  const std::string path = dir + "/f.pg";
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(path));
    Page page;
    page.Zero();
    for (int i = 0; i < 3; ++i) ASSERT_OK(pm->AppendPage(page).status());
  }
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
  ASSERT_EQ(::truncate(path.c_str(), 2 * kPageSize), 0);
  const std::string want = "Corruption: short read from pread " + path +
                           ": wanted 8192 bytes at offset 16384, got 0";
  Page page;
  EXPECT_EQ(pm->ReadPage(2, &page).ToString(), want);
  Page pages[3];
  EXPECT_EQ(pm->ReadPages(0, 3, pages).ToString(), want);
  EXPECT_EQ(pm->stats().TotalReads(), 2u) << "pages 0 and 1 were read";
}

TEST(PageManagerTest, FailedPageWriteNamesFileAndOffset) {
  if (!FileExists("/dev/full")) GTEST_SKIP() << "no /dev/full to write to";
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open("/dev/full"));
  const std::string want =
      "StorageFull: pwrite /dev/full (offset 0): " + std::string(
          std::strerror(ENOSPC));
  Page pages[3];
  for (Page& page : pages) page.Zero();
  EXPECT_EQ(pm->AppendPage(pages[0]).status().ToString(), want);
  EXPECT_EQ(pm->AppendPages(pages, 3).status().ToString(), want);
  EXPECT_EQ(pm->NumPages(), 0u);
  EXPECT_EQ(pm->stats().TotalWrites(), 0u);
}

// Extents change the number of system calls, nothing else: the same file
// bytes, checksum table and sequential/random counts as page at a time,
// and verify-on-read still checks every page of an extent.
TEST(PageManagerTest, ExtentIoMatchesPageAtATime) {
  const std::string dir = MakeTestDir("pm_extents");
  constexpr size_t kPages = 2 * kExtentPages + 3;
  std::vector<Page> pages(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    std::memset(pages[i].data, static_cast<int>('a' + i % 26), kPageSize);
  }
  const auto write = [&](const std::string& path, bool extents) {
    auto pm = PageManager::Create(path).value();
    pm->StartChecksumTracking();
    EXPECT_OK(pm->AllocatePage().status());
    if (extents) {
      for (size_t i = 0; i < kPages; i += kExtentPages) {
        const size_t n = std::min(kExtentPages, kPages - i);
        EXPECT_EQ(pm->AppendPages(&pages[i], n).value(), i + 1);
      }
    } else {
      for (const Page& page : pages) EXPECT_OK(pm->AppendPage(page).status());
    }
    EXPECT_OK(pm->Sync());
    EXPECT_OK(pm->FinalizeChecksums());
    return pm;
  };
  auto single = write(dir + "/single.pg", false);
  auto extent = write(dir + "/extent.pg", true);
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(dir + "/single.pg"), bytes(dir + "/extent.pg"));
  EXPECT_EQ(bytes(ChecksumSidecarPath(dir + "/single.pg")),
            bytes(ChecksumSidecarPath(dir + "/extent.pg")));
  EXPECT_EQ(single->stats().sequential_writes,
            extent->stats().sequential_writes);
  EXPECT_EQ(single->stats().random_writes, extent->stats().random_writes);

  std::vector<Page> read(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_OK(single->ReadPage(static_cast<PageId>(i + 1), &read[i]));
  }
  ASSERT_OK(extent->ReadPages(1, kExtentPages, read.data()));
  ASSERT_OK(extent->ReadPages(1 + kExtentPages, kPages - kExtentPages,
                              read.data() + kExtentPages));
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_EQ(std::memcmp(read[i].data, pages[i].data, kPageSize), 0) << i;
  }
  EXPECT_EQ(single->stats().sequential_reads, extent->stats().sequential_reads);
  EXPECT_EQ(single->stats().random_reads, extent->stats().random_reads);

  // Damage one page in the middle of an extent on disk.
  const int fd = ::open((dir + "/extent.pg").c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, "X", 1, 5 * kPageSize + 100), 1);
  ::close(fd);
  const Status damaged = extent->ReadPages(1, kExtentPages, read.data());
  EXPECT_TRUE(damaged.IsCorruption()) << damaged.ToString();
  EXPECT_NE(damaged.ToString().find("checksum mismatch on page 5"),
            std::string::npos)
      << damaged.ToString();
}

// With a failpoint armed, an extent meets the failpoint page by page: the
// pages before the failing one land and are counted, the rest do not.
TEST(PageManagerTest, ExtentAppendFailsAtTheArmedPage) {
  const std::string dir = MakeTestDir("pm_extent_fault");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Page pages[kExtentPages];
  for (Page& page : pages) page.Zero();
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", "error@3"));
  const Status status = pm->AppendPages(pages, kExtentPages).status();
  FaultInjector::Instance().DisarmAll();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(pm->NumPages(), 2u);
  EXPECT_EQ(pm->stats().TotalWrites(), 2u);
}

// --- Checksum sidecars ---------------------------------------------------

TEST(ChecksumTest, SidecarRoundTrip) {
  const std::string dir = MakeTestDir("crc_roundtrip");
  const std::string path = dir + "/data.pg";
  const std::vector<uint32_t> crcs = {0u, 0xdeadbeefu, 42u, 0xffffffffu};
  ASSERT_OK(WriteChecksumSidecar(path, crcs));
  std::vector<uint32_t> loaded;
  ASSERT_OK(LoadChecksumSidecar(path, &loaded));
  EXPECT_EQ(loaded, crcs);
  ASSERT_OK(RemoveChecksumSidecar(path));
  Status missing = LoadChecksumSidecar(path, &loaded);
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();
  // Removing an absent sidecar is not an error.
  ASSERT_OK(RemoveChecksumSidecar(path));
}

TEST(ChecksumTest, SidecarEmptyTableRoundTrips) {
  const std::string dir = MakeTestDir("crc_empty");
  const std::string path = dir + "/data.pg";
  ASSERT_OK(WriteChecksumSidecar(path, {}));
  std::vector<uint32_t> loaded = {1, 2, 3};
  ASSERT_OK(LoadChecksumSidecar(path, &loaded));
  EXPECT_TRUE(loaded.empty());
}

TEST(ChecksumTest, CorruptSidecarRejectedWithPathContext) {
  const std::string dir = MakeTestDir("crc_corrupt");
  const std::string path = dir + "/data.pg";
  ASSERT_OK(WriteChecksumSidecar(path, {1u, 2u, 3u}));
  const std::string sidecar = ChecksumSidecarPath(path);

  // Flip a byte inside the CRC table: the table checksum must catch it.
  {
    std::fstream f(sidecar, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(18);
    f.put('\x7f');
  }
  std::vector<uint32_t> loaded;
  Status status = LoadChecksumSidecar(path, &loaded);
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find(sidecar), std::string::npos)
      << status.ToString();

  // Truncation below the fixed header is Corruption too, not NotFound.
  ASSERT_EQ(::truncate(sidecar.c_str(), 7), 0);
  status = LoadChecksumSidecar(path, &loaded);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(ChecksumTest, PageManagerVerifyOnReadLifecycle) {
  const std::string dir = MakeTestDir("crc_pm");
  const std::string path = dir + "/data.pg";
  Page page;
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(path));
    pm->StartChecksumTracking();
    EXPECT_FALSE(pm->checksums_enabled());
    for (int i = 0; i < 4; ++i) {
      page.Zero();
      page.data[0] = static_cast<char>('a' + i);
      ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));
      EXPECT_EQ(id, static_cast<PageId>(i));
    }
    ASSERT_OK(pm->Sync());
    ASSERT_OK(pm->FinalizeChecksums());
    EXPECT_TRUE(pm->checksums_enabled());
    // Verified reads succeed against the live table.
    ASSERT_OK(pm->ReadPage(2, &page));
    EXPECT_EQ(page.data[0], 'c');
  }
  // Reopen: the sidecar re-arms verification.
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
    EXPECT_FALSE(pm->checksums_enabled());
    ASSERT_OK(pm->LoadChecksums());
    EXPECT_TRUE(pm->checksums_enabled());
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK(pm->ReadPage(static_cast<PageId>(i), &page));
      EXPECT_EQ(page.data[0], static_cast<char>('a' + i));
    }
  }
  // Corrupt one byte of page 1 on disk: the verified read must surface a
  // typed Corruption naming the page and byte offset, and the sibling
  // pages must stay readable.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kPageSize) + 100);
    f.put('\x55');
  }
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
    ASSERT_OK(pm->LoadChecksums());
    Status bad = pm->ReadPage(1, &page);
    ASSERT_TRUE(bad.IsCorruption()) << bad.ToString();
    const std::string text = bad.ToString();
    EXPECT_NE(text.find(path), std::string::npos) << text;
    EXPECT_NE(text.find("page 1"), std::string::npos) << text;
    EXPECT_NE(text.find("offset 8192"), std::string::npos) << text;
    ASSERT_OK(pm->ReadPage(0, &page));
    ASSERT_OK(pm->ReadPage(2, &page));
    ASSERT_OK(pm->ReadPage(3, &page));
  }
  // A file opened without LoadChecksums still reads the damaged page —
  // that is exactly the pre-checksum behavior the sidecar upgrade fixes.
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
    ASSERT_OK(pm->ReadPage(1, &page));
  }
}

TEST(ChecksumTest, LoadChecksumsRejectsPageCountMismatch) {
  const std::string dir = MakeTestDir("crc_count");
  const std::string path = dir + "/data.pg";
  Page page;
  page.Zero();
  {
    ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(path));
    ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));
    (void)id;
    ASSERT_OK(pm->Sync());
  }
  // Sidecar describing a different page count than the file.
  ASSERT_OK(WriteChecksumSidecar(path, {1u, 2u, 3u}));
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Open(path));
  Status status = pm->LoadChecksums();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_FALSE(pm->checksums_enabled());
}

// --- BufferPool::Fetch failed-read invariant -----------------------------

// A failed physical read inside Fetch must return the grabbed frame to the
// free list with no page-table entry and no pin — otherwise the pool leaks
// one frame per I/O error until nothing can be fetched at all.
TEST(BufferPoolTest, FetchReadErrorLeaksNoFrameOrMapping) {
  const std::string dir = MakeTestDir("bp_read_error");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(2);
  Page page;
  page.Zero();
  for (int i = 0; i < 3; ++i) {
    page.data[0] = static_cast<char>('a' + i);
    ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));
    (void)id;
  }
  PageManager::SetReadRetryPolicy(1, 0);
  // Ten consecutive failed fetches: if any of them leaked a frame or
  // double-freed one, the 2-frame pool below could not serve 2 pins.
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error(10)"));
  for (int i = 0; i < 10; ++i) {
    auto fetched = pool.Fetch(pm.get(), static_cast<PageId>(i % 3));
    ASSERT_FALSE(fetched.ok());
    EXPECT_TRUE(fetched.status().IsIOError())
        << fetched.status().ToString();
    EXPECT_EQ(pool.PinnedPages(), 0u);
  }
  FaultInjector::Instance().DisarmAll();
  PageManager::SetReadRetryPolicy(4, 0);
  // No stale page-table entry: a post-error fetch performs a real read and
  // returns the true bytes.
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h0, pool.Fetch(pm.get(), 0));
    EXPECT_EQ(h0.data()[0], 'a');
    ASSERT_OK_AND_ASSIGN(PageHandle h1, pool.Fetch(pm.get(), 1));
    EXPECT_EQ(h1.data()[0], 'b');
    // Both frames pinned: the pool is exactly full, proving the failed
    // fetches neither leaked a frame nor duplicated one on the free list.
    auto third = pool.Fetch(pm.get(), 2);
    ASSERT_FALSE(third.ok());
    EXPECT_TRUE(third.status().IsResourceExhausted())
        << third.status().ToString();
    EXPECT_EQ(pool.PinnedPages(), 2u);
  }
  EXPECT_EQ(pool.PinnedPages(), 0u);
  ASSERT_OK_AND_ASSIGN(PageHandle h2, pool.Fetch(pm.get(), 2));
  EXPECT_EQ(h2.data()[0], 'c');
}

// Same invariant under eviction pressure: the failed read's frame came
// from evicting a clean cached page, whose mapping must be gone while the
// failed page's mapping must never appear.
TEST(BufferPoolTest, FetchReadErrorAfterEvictionKeepsTableConsistent) {
  const std::string dir = MakeTestDir("bp_read_error_evict");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  BufferPool pool(2);
  Page page;
  page.Zero();
  for (int i = 0; i < 3; ++i) {
    page.data[0] = static_cast<char>('a' + i);
    ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));
    (void)id;
  }
  // Warm the pool with pages 0 and 1 (unpinned, evictable).
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(pm.get(), 0)); }
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(pm.get(), 1)); }
  PageManager::SetReadRetryPolicy(1, 0);
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error(1)"));
  auto fetched = pool.Fetch(pm.get(), 2);
  ASSERT_FALSE(fetched.ok());
  FaultInjector::Instance().DisarmAll();
  PageManager::SetReadRetryPolicy(4, 0);
  EXPECT_EQ(pool.PinnedPages(), 0u);
  const uint64_t misses_before = pool.stats().misses;
  // Page 2 must not have a stale mapping: fetching it is a miss with a
  // real read, and the data is correct.
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(pm.get(), 2));
    EXPECT_EQ(h.data()[0], 'c');
  }
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
  // The evicted victim is re-fetchable too.
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(pm.get(), 1));
    EXPECT_EQ(h.data()[0], 'b');
  }
}

}  // namespace
}  // namespace cubetree
