#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "engine/wal.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

constexpr size_t kHeader = WriteAheadLog::kRecordHeader;

TEST(WalTest, LogsAndForces) {
  const std::string dir = MakeTestDir("wal_basic");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  const std::string record(100, 'x');
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  EXPECT_EQ(wal->records(), 10u);
  EXPECT_EQ(wal->BytesLogged(), 10u * (100 + kHeader));
  // Nothing hit the disk yet (buffered within one page).
  EXPECT_EQ(stats->TotalWrites(), 0u);
  ASSERT_OK(wal->Force());
  EXPECT_EQ(stats->TotalWrites(), 1u);
  EXPECT_EQ(stats->sequential_writes, 1u);
}

TEST(WalTest, SpillsFullPages) {
  const std::string dir = MakeTestDir("wal_pages");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  const std::string record(1000, 'y');
  // 100 records x 1008 bytes > 12 pages.
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  EXPECT_GE(stats->sequential_writes, 12u);
  EXPECT_EQ(stats->random_writes, 0u);
}

TEST(WalTest, RecordsSpanPageBoundaries) {
  const std::string dir = MakeTestDir("wal_span");
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(dir + "/w.wal"));
  // A record larger than a page must be accepted and accounted fully.
  const std::string big(3 * kPageSize, 'z');
  ASSERT_OK(wal->LogRecord(big.data(), big.size()));
  ASSERT_OK(wal->Force());
  EXPECT_EQ(wal->BytesLogged(), big.size() + kHeader);
}

TEST(WalTest, ForceIsIdempotentWhenEmpty) {
  const std::string dir = MakeTestDir("wal_idem");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  ASSERT_OK(wal->Force());
  ASSERT_OK(wal->Force());
  EXPECT_EQ(stats->TotalWrites(), 0u);
}

TEST(WalTest, RejectsEmptyRecord) {
  const std::string dir = MakeTestDir("wal_empty");
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(dir + "/w.wal"));
  EXPECT_TRUE(wal->LogRecord("", 0).IsInvalidArgument());
}

// The volume fills after a commit: every further page append fails with
// StorageFull and persists nothing (ENOSPC before the write, unlike a torn
// append), so the file still ends at the page the Force() wrote.
TEST(WalTest, AppendAfterEnospcIsStorageFull) {
  const std::string dir = MakeTestDir("wal_enospc_append");
  const std::string path = dir + "/w.wal";
  const std::string record(64, 'e');
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  ASSERT_OK(wal->Force());  // The committed prefix, durable on disk.

  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", "enospc"));
  Status status = Status::OK();
  while (status.ok()) {
    status = wal->LogRecord(record.data(), record.size());
  }
  EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
  FaultInjector::Instance().DisarmAll();
  wal.reset();
  EXPECT_EQ(std::filesystem::file_size(path), kPageSize);
}

}  // namespace
}  // namespace cubetree
