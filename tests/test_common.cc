// Unit tests for the common substrate: Result, CRC32C, RNG, serialization,
// stats, path normalization, panic/WARN machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/panic.h"
#include "common/path.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/warn.h"

namespace raefs {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.error(), Errno::kOk);

  Result<int> err(Errno::kNoEnt);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), Errno::kNoEnt);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, StatusOkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status bad(Errno::kIo);
  EXPECT_FALSE(bad.ok());
}

Result<int> try_helper(Result<int> in) {
  RAEFS_TRY(int v, std::move(in));
  return v + 1;
}

TEST(Result, TryMacroPropagates) {
  EXPECT_EQ(try_helper(Result<int>(1)).value(), 2);
  EXPECT_EQ(try_helper(Result<int>(Errno::kExist)).error(), Errno::kExist);
}

// CRC32C straight from the reflected polynomial, one bit at a time: no
// table and no instruction, so it shares nothing with either crc32c() path.
uint32_t crc32c_bitwise(std::span<const uint8_t> data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

// Declared first among the checksum tests so that, in a run of this
// binary, one of these threads makes the process's first crc32c() call and
// resolves the dispatch while the others race it (the TSan job runs it).
TEST(Checksum, ConcurrentFirstUseMatchesReference) {
  constexpr int kThreads = 8;
  constexpr int kBuffers = 16;
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<uint32_t> want;
  for (int i = 0; i < kBuffers; ++i) {
    bufs.push_back(random_bytes(1 + i * 517, 100 + i));
    want.push_back(crc32c_bitwise(bufs.back()));
  }
  std::vector<std::vector<uint32_t>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kBuffers; ++i) {
        got[t].push_back(crc32c(bufs[(i + t) % kBuffers]));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kBuffers; ++i) {
      EXPECT_EQ(got[t][i], want[(i + t) % kBuffers]) << "thread " << t;
    }
  }
}

TEST(Checksum, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (standard check value).
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
}

TEST(Checksum, EmptyIsZero) { EXPECT_EQ(crc32c(nullptr, 0), 0u); }

TEST(Checksum, SeedChaining) {
  const char* s = "hello world";
  uint32_t whole = crc32c(s, 11);
  uint32_t part = crc32c(s, 5);
  uint32_t chained = crc32c(s + 5, 6, part);
  EXPECT_EQ(whole, chained);
}

TEST(Checksum, DetectsBitFlip) {
  std::vector<uint8_t> data(4096, 0xAA);
  uint32_t before = crc32c(data.data(), data.size());
  data[1234] ^= 0x01;
  EXPECT_NE(before, crc32c(data.data(), data.size()));
}

// Each check below runs against both implementations: crc32c() as
// dispatched on this host, and the table loop it falls back to elsewhere.
using CrcFn = uint32_t (*)(std::span<const uint8_t>, uint32_t);

class ChecksumPath : public ::testing::TestWithParam<CrcFn> {};

TEST_P(ChecksumPath, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) appendix B.4.
  const CrcFn crc = GetParam();
  std::vector<uint8_t> data(32);
  std::fill(data.begin(), data.end(), 0x00);
  EXPECT_EQ(crc(data, 0), 0x8A9136AAu);
  std::fill(data.begin(), data.end(), 0xFF);
  EXPECT_EQ(crc(data, 0), 0x62A8AB43u);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc(data, 0), 0x46DD794Eu);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(crc(data, 0), 0x113FDB5Cu);
  const auto* check = reinterpret_cast<const uint8_t*>("123456789");
  EXPECT_EQ(crc({check, 9}, 0), 0xE3069283u);  // the standard check value
}

TEST_P(ChecksumPath, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length 0-64, then 200 seeded lengths up to three blocks; each at
  // start offsets 0-7 (so the 8-byte loop meets every alignment and tail)
  // from a random seed.
  const CrcFn crc = GetParam();
  Rng rng(2024);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(rng.below(3 * kBlockSize + 1));
  }
  const auto buf = random_bytes(3 * kBlockSize + 8, 7);
  for (size_t n : lengths) {
    for (size_t off = 0; off < 8; ++off) {
      const auto seed = static_cast<uint32_t>(rng.next());
      std::span<const uint8_t> part(buf.data() + off, n);
      ASSERT_EQ(crc(part, seed), crc32c_bitwise(part, seed))
          << "length " << n << " offset " << off << " seed " << seed;
    }
  }
}

TEST_P(ChecksumPath, ChainsAtEverySplitOfABlock) {
  const CrcFn crc = GetParam();
  const auto block = random_bytes(kBlockSize, 11);
  const std::span<const uint8_t> all(block);
  const uint32_t whole = crc32c_bitwise(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    const uint32_t head = crc(all.first(split), 0);
    ASSERT_EQ(crc(all.subspan(split), head), whole) << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ChecksumPath,
    ::testing::Values(static_cast<CrcFn>(&crc32c), &crc32c_table),
    [](const ::testing::TestParamInfo<CrcFn>& info) {
      return std::string(info.index == 0 ? "Dispatched" : "Table");
    });

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
  }
  // Different seed diverges (overwhelmingly likely).
  Rng a2(7);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.next() != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    uint64_t v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Serial, RoundTripScalars) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.put_u8(0xAB);
  enc.put_u16(0xCDEF);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFull);
  enc.put_string("shadow");
  enc.put_fixed("fs", 8);

  Decoder dec(buf);
  EXPECT_EQ(dec.get_u8(), 0xAB);
  EXPECT_EQ(dec.get_u16(), 0xCDEF);
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.get_string(), "shadow");
  EXPECT_EQ(dec.get_fixed(8), "fs");
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(Serial, UnderrunSetsNotOk) {
  std::vector<uint8_t> buf = {1, 2};
  Decoder dec(buf);
  dec.get_u64();
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.get_u32(), 0u);  // poisoned reads return zero
}

TEST(Path, Normalization) {
  auto p = split_path("/a//b/./c/../d");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(join_path(p.value()), "/a/b/d");
  EXPECT_EQ(join_path(split_path("/").value()), "/");
  EXPECT_EQ(join_path(split_path("/..").value()), "/");
  EXPECT_FALSE(split_path("relative").ok());
  EXPECT_FALSE(split_path("").ok());
}

TEST(Path, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += "/d";
  EXPECT_EQ(split_path(deep).error(), Errno::kNameTooLong);
}

TEST(Path, AncestorCheck) {
  EXPECT_TRUE(path_is_ancestor("/a", "/a/b"));
  EXPECT_TRUE(path_is_ancestor("/", "/a"));
  EXPECT_FALSE(path_is_ancestor("/a", "/ab"));
  EXPECT_FALSE(path_is_ancestor("/a/b", "/a"));
  EXPECT_FALSE(path_is_ancestor("/a", "/a"));
}

TEST(Panic, FsPanicCarriesSite) {
  try {
    fs_panic(FaultSite{"test_fn", "boom", 42});
    FAIL() << "should have thrown";
  } catch (const FsPanicError& e) {
    EXPECT_EQ(e.site().function, "test_fn");
    EXPECT_EQ(e.site().bug_id, 42);
  }
}

TEST(Panic, WarnSinkRecordsAndNotifies) {
  WarnSink sink;
  int notified = 0;
  sink.set_observer([&](const WarnEvent& ev) {
    ++notified;
    EXPECT_GT(ev.seq, 0u);
  });
  sink.warn(FaultSite{"a", "x", 1});
  sink.warn(FaultSite{"b", "y", 2});
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(notified, 2);
  EXPECT_EQ(sink.events()[1].site.function, "b");
  sink.clear();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(Panic, ShadowCheckThrows) {
  EXPECT_THROW(SHADOW_CHECK(false, "must fail"), ShadowCheckError);
  EXPECT_NO_THROW(SHADOW_CHECK(true, "fine"));
}

TEST(Clock, AdvanceIsMonotonic) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150u);
}

TEST(Stats, HistogramQuantiles) {
  LatencyHistogram h;
  for (Nanos v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1.0);
  // Log buckets: quantiles are approximate, within a power of two.
  EXPECT_LE(h.quantile(0.5), 1024u);
  EXPECT_GE(h.quantile(0.99), 512u);
}

TEST(Stats, Availability) {
  AvailabilityTracker t;
  EXPECT_DOUBLE_EQ(t.availability(), 1.0);
  t.record_up(900);
  t.record_down(100);
  EXPECT_DOUBLE_EQ(t.availability(), 0.9);
  EXPECT_EQ(t.outages(), 1u);
}

TEST(Stats, FormatNanos) {
  EXPECT_EQ(format_nanos(5), "5ns");
  EXPECT_EQ(format_nanos(50 * kMicro), "50.0us");
  EXPECT_EQ(format_nanos(12300 * kMicro), "12.3ms");
  EXPECT_EQ(format_nanos(12 * kSecond), "12.00s");
}

TEST(Serial, HexdumpShape) {
  std::vector<uint8_t> data = {'h', 'i', 0, 255};
  auto dump = hexdump(data);
  EXPECT_NE(dump.find("68 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|hi..|"), std::string::npos);
}

TEST(Log, LinePrefixCarriesTimestampThreadAndLevel) {
  std::vector<std::string> lines;
  set_log_sink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  SimClock clock;
  clock.advance(50 * kMicro);
  set_log_clock(&clock);
  LogLevel prev = log_level();
  set_log_level(LogLevel::kInfo);

  RAEFS_LOG_INFO("test") << "hello";
  RAEFS_LOG_ERROR("test") << "boom";

  set_log_level(prev);
  set_log_clock(nullptr);
  set_log_sink(nullptr);

  ASSERT_EQ(lines.size(), 2u);
  // "<timestamp> T<tid> LEVEL [tag] msg"
  EXPECT_NE(lines[0].find("50.0us"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(" T"), std::string::npos);
  EXPECT_NE(lines[0].find(" I [test] hello"), std::string::npos);
  EXPECT_NE(lines[1].find(" E [test] boom"), std::string::npos);
}

// Regression: concurrent writers used to interleave fragments of their
// lines. Each line is now assembled in full and emitted under one lock,
// so every captured line must be exactly one writer's complete message.
TEST(Log, ConcurrentWritersNeverInterleave) {
  std::mutex mu;
  std::vector<std::string> lines;
  set_log_sink([&](LogLevel, const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    lines.push_back(line);
  });
  LogLevel prev = log_level();
  set_log_level(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::string payload = "writer" + std::to_string(t) + "-" +
                            std::string(64, static_cast<char>('a' + t));
      for (int i = 0; i < kLines; ++i) {
        RAEFS_LOG_INFO("mt") << payload << " line " << i;
      }
    });
  }
  for (auto& t : threads) t.join();
  set_log_level(prev);
  set_log_sink(nullptr);

  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads) * kLines);
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    // Exactly one writer's tag appears, and the whole payload is intact.
    int owners = 0;
    for (int t = 0; t < kThreads; ++t) {
      std::string payload = "writer" + std::to_string(t) + "-" +
                            std::string(64, static_cast<char>('a' + t));
      if (line.find(payload) != std::string::npos) ++owners;
    }
    EXPECT_EQ(owners, 1) << "corrupt line: " << line;
    EXPECT_TRUE(seen.insert(line).second) << "duplicate line: " << line;
  }
}

}  // namespace
}  // namespace raefs
