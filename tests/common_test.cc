#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/disk_space.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CodePredicates) {
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_FALSE(Status::IOError("x").IsNotFound());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    CT_RETURN_NOT_OK(Status::IOError("disk died"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsIOError());
  auto succeeds = []() -> Status {
    CT_RETURN_NOT_OK(Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(succeeds().ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    CT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  ASSERT_TRUE(outer(false).ok());
  EXPECT_EQ(*outer(false), 8);
  EXPECT_FALSE(outer(true).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(CodingTest, Fixed32RoundTrip) {
  char buf[4];
  for (uint32_t v : {0u, 1u, 0x12345678u, 0xFFFFFFFFu}) {
    EncodeFixed32(buf, v);
    EXPECT_EQ(DecodeFixed32(buf), v);
  }
}

TEST(CodingTest, Fixed32IsLittleEndianOnDisk) {
  char buf[4];
  EncodeFixed32(buf, 0x04030201u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x04);
}

TEST(CodingTest, Fixed64RoundTrip) {
  char buf[8];
  for (uint64_t v : {0ull, 1ull, 0x123456789ABCDEF0ull, ~0ull}) {
    EncodeFixed64(buf, v);
    EXPECT_EQ(DecodeFixed64(buf), v);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformRange(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(RngTest, UniformCoversDomain) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 (iSCSI) CRC-32C test vectors — these pin the polynomial,
  // reflection, and init/final inversion, so the hardware (SSE4.2) and
  // slice-by-8 software paths cannot silently disagree with the spec.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  unsigned char buf[32];
  std::memset(buf, 0x00, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(buf, 0), 0u);
}

TEST(Crc32cTest, SeedChainingEqualsConcatenation) {
  // Extending via the seed must equal one pass over the concatenation,
  // at every split point — including splits that leave the second chunk
  // misaligned and shorter than one 8-byte word.
  Rng rng(123);
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{500}, size_t{999}, data.size()}) {
    const uint32_t head = Crc32c(data.data(), split);
    const uint32_t chained =
        Crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(LoggingTest, RespectsLevel) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  CT_LOG(Info) << "should be suppressed";
  SetLogLevel(old);
  SUCCEED();
}

TEST(EnvUint64Test, AcceptsOnlyPlainDecimalsBelowTwoToThe64) {
  constexpr const char* kName = "CUBETREE_TEST_ENV_UINT64";
  ScopedEnv env(kName, nullptr);
  EXPECT_EQ(EnvUint64(kName, 9), 9u);
  for (const char* bad :
       {"-1", "+5", " 7", "12abc", "", "18446744073709551616"}) {
    env.Set(bad);
    EXPECT_EQ(EnvUint64(kName, 9), 9u) << "'" << bad << "'";
  }
  const std::pair<const char*, uint64_t> good[] = {
      {"0", 0}, {"42", 42}, {"18446744073709551615", UINT64_MAX}};
  for (const auto& [text, want] : good) {
    env.Set(text);
    EXPECT_EQ(EnvUint64(kName, 9), want) << text;
  }
}

TEST(EnvUint64Test, NegativeDiskReserveFallsBackToTheDefault) {
  // "-1" is malformed, not 2^64-1: a reserve no volume can honor would
  // make every refresh preflight refuse with StorageFull.
  ScopedEnv env("CUBETREE_DISK_RESERVE_BYTES", nullptr);
  const uint64_t fallback = DiskSpaceManager::ReserveBytesFromEnv();
  env.Set("-1");
  EXPECT_EQ(DiskSpaceManager::ReserveBytesFromEnv(), fallback);
  env.Set("4096");
  EXPECT_EQ(DiskSpaceManager::ReserveBytesFromEnv(), 4096u);
}

}  // namespace
}  // namespace cubetree
