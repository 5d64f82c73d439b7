// Unit tests for the fault-injection subsystem: registry, spec grammar,
// and the storage layer's reaction to injected errors (bounded retries on
// the read path, torn-write prefixes, throw-mode crashes).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstring>
#include <set>
#include <string>

#include "fault/fault_injector.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    PageManager::SetReadRetryPolicy(4, 0);
  }
};

uint64_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

TEST_F(FaultTest, RegistryHasAtLeastTwentyUniquePoints) {
  const auto& points = FaultInjector::RegisteredPoints();
  EXPECT_GE(points.size(), 20u);
  std::set<std::string> names;
  for (const auto& point : points) {
    EXPECT_NE(point.description[0], '\0') << point.name;
    EXPECT_TRUE(names.insert(point.name).second)
        << "duplicate failpoint " << point.name;
    EXPECT_TRUE(FaultInjector::IsRegistered(point.name));
  }
}

TEST_F(FaultTest, UnregisteredNamesAreRejected) {
  auto& injector = FaultInjector::Instance();
  EXPECT_FALSE(injector.Arm("no.such.point", "error").ok());
  EXPECT_FALSE(FaultInjector::IsRegistered("no.such.point"));
}

TEST_F(FaultTest, SpecGrammar) {
  auto& injector = FaultInjector::Instance();
  ASSERT_OK(injector.Arm("wal.force", "error"));
  ASSERT_OK(injector.Arm("wal.force", "error(2)"));
  ASSERT_OK(injector.Arm("wal.force", "crash@3"));
  ASSERT_OK(injector.Arm("wal.force", "torn(1)@2"));
  ASSERT_OK(injector.Arm("wal.force", "throw"));
  ASSERT_OK(injector.Arm("storage.page.read", "bitflip"));
  ASSERT_OK(injector.Arm("storage.page.read", "bitflip(1)@4"));
  ASSERT_OK(injector.Arm("storage.page.read", "corrupt_page"));
  ASSERT_OK(injector.Arm("storage.page.read", "corrupt_page(2)@3"));
  EXPECT_FALSE(injector.Arm("wal.force", "explode").ok());
  EXPECT_FALSE(injector.Arm("wal.force", "error(0x2)").ok());
  EXPECT_FALSE(injector.Arm("wal.force", "error@").ok());
  EXPECT_FALSE(injector.Arm("wal.force", "").ok());
  // Counts are digits only and below 2^32: no wrap to the first hit or to
  // "unlimited", no sign, no whitespace.
  EXPECT_FALSE(injector.Arm("storage.page.sync", "error@4294967297").ok());
  EXPECT_FALSE(injector.Arm("storage.page.sync", "error(4294967296)").ok());
  EXPECT_FALSE(injector.Arm("storage.page.sync", "error@-1").ok());
  EXPECT_FALSE(injector.Arm("storage.page.sync", "error@ 3").ok());
  EXPECT_FALSE(injector.Arm("storage.page.sync", "error(+2)").ok());
  injector.DisarmAll();
  EXPECT_FALSE(FaultInjector::AnyArmed());
}

TEST_F(FaultTest, ParseAndArmConfigString) {
  auto& injector = FaultInjector::Instance();
  ASSERT_OK(injector.ParseAndArm(
      "wal.force=error(2);storage.page.read=torn@5"));
  EXPECT_TRUE(FaultInjector::AnyArmed());
  // Bad entries are rejected as a whole.
  EXPECT_FALSE(injector.ParseAndArm("wal.force=error;bogus").ok());
  EXPECT_FALSE(injector.ParseAndArm("no.such.point=error").ok());
}

TEST_F(FaultTest, TriggerOnHitAndMaxTriggers) {
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.trigger_on_hit = 2;
  spec.max_triggers = 2;
  const uint64_t base = injector.HitCount("wal.force");
  ASSERT_OK(injector.Arm("wal.force", spec));
  EXPECT_FALSE(injector.Check("wal.force").fail);  // hit 1: before trigger
  EXPECT_TRUE(injector.Check("wal.force").fail);   // hit 2: trigger 1
  EXPECT_TRUE(injector.Check("wal.force").fail);   // hit 3: trigger 2
  EXPECT_FALSE(injector.Check("wal.force").fail);  // exhausted
  EXPECT_EQ(injector.HitCount("wal.force"), base + 4);
}

TEST_F(FaultTest, CorruptionActionsReportThroughOutcomeNotStatus) {
  // bitflip / corrupt_page model SILENT corruption: the I/O "succeeds" (no
  // fail flag, OK status) and only the outcome flags tell the storage
  // layer to damage the freshly read bytes. Detection is the checksum
  // layer's job, not the injector's.
  auto& injector = FaultInjector::Instance();
  ASSERT_OK(injector.Arm("storage.page.read", "bitflip(1)"));
  FaultOutcome outcome = injector.Check("storage.page.read");
  EXPECT_TRUE(outcome.bitflip);
  EXPECT_FALSE(outcome.fail);
  EXPECT_FALSE(outcome.corrupt_page);
  EXPECT_OK(outcome.ToStatus());
  outcome = injector.Check("storage.page.read");  // (1): exhausted.
  EXPECT_FALSE(outcome.bitflip);

  ASSERT_OK(injector.Arm("storage.page.read", "corrupt_page(1)"));
  outcome = injector.Check("storage.page.read");
  EXPECT_TRUE(outcome.corrupt_page);
  EXPECT_FALSE(outcome.fail);
  EXPECT_OK(outcome.ToStatus());
}

TEST_F(FaultTest, InjectedErrorStatusNamesTheFailpoint) {
  auto& injector = FaultInjector::Instance();
  ASSERT_OK(injector.Arm("storage.page.sync", "error"));
  const std::string dir = MakeTestDir("fault_error");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Status status = pm->Sync();
  ASSERT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("storage.page.sync"), std::string::npos)
      << status.ToString();
}

TEST_F(FaultTest, TransientReadErrorClearsViaRetry) {
  const std::string dir = MakeTestDir("fault_retry");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Page page;
  page.Zero();
  std::memcpy(page.data, "payload", 7);
  ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));

  PageManager::SetReadRetryPolicy(4, 0);
  // First two read attempts fail, the third succeeds — within the retry
  // budget, so the caller never sees the transient error.
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error(2)"));
  Page out;
  ASSERT_OK(pm->ReadPage(id, &out));
  EXPECT_EQ(std::memcmp(out.data, "payload", 7), 0);
}

TEST_F(FaultTest, PermanentReadErrorExhaustsRetries) {
  const std::string dir = MakeTestDir("fault_permanent");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Page page;
  page.Zero();
  ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));

  PageManager::SetReadRetryPolicy(3, 0);
  const uint64_t base =
      FaultInjector::Instance().HitCount("storage.page.read");
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error"));
  Page out;
  Status status = pm->ReadPage(id, &out);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  // One initial attempt plus two retries.
  EXPECT_EQ(FaultInjector::Instance().HitCount("storage.page.read"),
            base + 3);
}

TEST_F(FaultTest, TornWriteLeavesAPrefixOfThePage) {
  const std::string dir = MakeTestDir("fault_torn");
  const std::string path = dir + "/f.pg";
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(path));
  Page page;
  std::memset(page.data, 0x5A, kPageSize);
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", "torn"));
  auto appended = pm->AppendPage(page);
  ASSERT_FALSE(appended.ok());
  EXPECT_TRUE(appended.status().IsIOError());
  // A strict prefix of the page reached the file: longer than nothing,
  // shorter than a page.
  const uint64_t size = FileSize(path);
  EXPECT_GT(size, 0u);
  EXPECT_LT(size, kPageSize);
}

TEST_F(FaultTest, ThrowActionRaisesSimulatedCrash) {
  const std::string dir = MakeTestDir("fault_throw");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.sync", "throw"));
  bool caught = false;
  try {
    (void)pm->Sync();
  } catch (const SimulatedCrash& crash) {
    caught = true;
    EXPECT_EQ(crash.failpoint(), "storage.page.sync");
  }
  EXPECT_TRUE(caught);
}

TEST_F(FaultTest, DisarmStopsInjection) {
  const std::string dir = MakeTestDir("fault_disarm");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.sync", "error"));
  EXPECT_FALSE(pm->Sync().ok());
  FaultInjector::Instance().Disarm("storage.page.sync");
  EXPECT_OK(pm->Sync());
}

TEST_F(FaultTest, NothingArmedIsFree) {
  EXPECT_FALSE(FaultInjector::AnyArmed());
  const uint64_t base =
      FaultInjector::Instance().HitCount("storage.page.read");
  const std::string dir = MakeTestDir("fault_idle");
  ASSERT_OK_AND_ASSIGN(auto pm, PageManager::Create(dir + "/f.pg"));
  Page page;
  page.Zero();
  ASSERT_OK_AND_ASSIGN(PageId id, pm->AppendPage(page));
  Page out;
  ASSERT_OK(pm->ReadPage(id, &out));
  ASSERT_OK(pm->Sync());
  // Hit counters only advance while something is armed.
  EXPECT_EQ(FaultInjector::Instance().HitCount("storage.page.read"), base);
}

}  // namespace
}  // namespace cubetree
