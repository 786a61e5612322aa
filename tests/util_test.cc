// Unit tests for the utility layer: status, RNG, statistics helpers, flag
// parsing, and memory accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace mbe::util {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status s = Status::NotFound("missing.txt");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing.txt");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kOutOfRange,
        StatusCode::kCorruptData, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  StatusOr<int> bad(Status::IoError("disk on fire"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> bad(Status::IoError("nope"));
  EXPECT_DEATH((void)bad.value(), "IO_ERROR");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicStreams) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) differs |= a2.Next() != c.Next();
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowIsInRangeAndCoversValues) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.Below(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const uint64_t x = rng.Range(10, 12);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 12u);
  }
  EXPECT_EQ(rng.Range(5, 5), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// --- RunningStat / Percentile --------------------------------------------------

TEST(RunningStatTest, MomentsMatchHandComputation) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.Add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
}

TEST(HumanFormatTest, Counts) {
  EXPECT_EQ(HumanCount(0), "0");
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1500), "1.50K");
  EXPECT_EQ(HumanCount(26.6e6), "26.6M");
  EXPECT_EQ(HumanCount(19.6e9), "19.6B");
}

TEST(HumanFormatTest, Bytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(2048), "2.00KiB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00MiB");
  EXPECT_EQ(HumanBytes(5ull << 30), "5.00GiB");
}

TEST(HumanFormatTest, Seconds) {
  EXPECT_EQ(HumanSeconds(2.5), "2.50s");
  EXPECT_EQ(HumanSeconds(0.0123), "12.3ms");
  EXPECT_EQ(HumanSeconds(12.3e-6), "12.3us");
  EXPECT_EQ(HumanSeconds(500e-9), "500ns");
}

// --- FlagParser ----------------------------------------------------------------

TEST(FlagParserTest, ParsesAllForms) {
  FlagParser flags;
  flags.AddString("name", "default", "a string");
  flags.AddInt("count", 3, "an int");
  flags.AddDouble("ratio", 0.5, "a double");
  flags.AddBool("verbose", false, "a bool");
  flags.AddBool("color", true, "another bool");

  const char* argv[] = {"prog",          "--name=alice", "--count", "17",
                        "--ratio=0.25",  "--verbose",    "--no-color",
                        "positional_arg"};
  flags.Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("name"), "alice");
  EXPECT_EQ(flags.GetInt("count"), 17);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("color"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional_arg");
}

TEST(FlagParserTest, DefaultsSurviveWhenNotPassed) {
  FlagParser flags;
  flags.AddInt("x", 42, "");
  const char* argv[] = {"prog"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("x"), 42);
}

TEST(FlagParserTest, BoolTextForms) {
  FlagParser flags;
  flags.AddBool("a", false, "");
  flags.AddBool("b", true, "");
  const char* argv[] = {"prog", "--a=yes", "--b=off"};
  flags.Parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
}

TEST(FlagParserDeathTest, BadIntegerAborts) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_DEATH(flags.Parse(2, const_cast<char**>(argv)), "expects an integer");
}

TEST(FlagParserDeathTest, WrongTypeAccessAborts) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  const char* argv[] = {"prog"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_DEATH((void)flags.GetString("n"), "has type");
}

TEST(FlagParserDeathTest, MissingValueAborts) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_DEATH(flags.Parse(2, const_cast<char**>(argv)), "missing a value");
}

// --- MemoryTracker --------------------------------------------------------------

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker t;
  t.Add(100);
  t.Add(50);
  EXPECT_EQ(t.current(), 150u);
  EXPECT_EQ(t.peak(), 150u);
  t.Sub(120);
  EXPECT_EQ(t.current(), 30u);
  EXPECT_EQ(t.peak(), 150u);
  t.Add(10);
  EXPECT_EQ(t.peak(), 150u);
  t.Reset();
  EXPECT_EQ(t.current(), 0u);
  EXPECT_EQ(t.peak(), 0u);
}

TEST(MemoryTrackerTest, PeakIsRaceFreeUnderContention) {
  MemoryTracker t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t]() {
      for (int j = 0; j < 10000; ++j) {
        t.Add(3);
        t.Sub(3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current(), 0u);
  EXPECT_LE(t.peak(), 12u);
  EXPECT_GE(t.peak(), 3u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // sleep_for blocks for at least its duration, so the lower bound below
  // holds on any host at any load: this wait is the quantity under test.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.Millis(), 15.0);
  // Reset restarts the clock: afterwards the timer can have seen no more
  // time than a timer started just before the reset — whatever the host's
  // speed, whereas a timer that kept running would be >= 20ms ahead.
  WallTimer before_reset;
  timer.Reset();
  const double since_reset = timer.Millis();
  EXPECT_LE(since_reset, before_reset.Millis());
  EXPECT_GE(timer.Nanos(), 0);
}

}  // namespace
}  // namespace mbe::util
