// Tests for the common layer: Status/StatusOr plumbing, the PRNG, and
// the environment helpers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "common/env.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace pbitree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::IOError("short read");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "short read");
  EXPECT_EQ(st.ToString(), "IOError: short read");

  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, WorksWithMoveOnlyAndNonDefaultConstructible) {
  struct NoDefault {
    explicit NoDefault(int x) : v(x) {}
    int v;
  };
  StatusOr<NoDefault> r(NoDefault(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->v, 7);
}

Status FailingHelper() { return Status::Corruption("inner"); }

Status UsesReturnMacro() {
  PBITREE_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();  // unreachable
}

StatusOr<int> GivesSeven() { return 7; }

Status UsesAssignMacro(int* out) {
  PBITREE_ASSIGN_OR_RETURN(int v, GivesSeven());
  *out = v;
  return Status::OK();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnMacro().code(), StatusCode::kCorruption);
}

TEST(StatusMacroTest, AssignOrReturnBinds) {
  int v = 0;
  ASSERT_TRUE(UsesAssignMacro(&v).ok());
  EXPECT_EQ(v, 7);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random r1(5), r2(5), r3(6);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = r1.Next(), b = r2.Next(), c = r3.Next();
    EXPECT_EQ(a, b);
    (void)c;
  }
  EXPECT_NE(Random(5).Next(), Random(6).Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random rng(2);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_GT(hits, 28000);
  EXPECT_LT(hits, 32000);
}

TEST(EnvTest, TempFilePathsAreUnique) {
  std::set<std::string> paths;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(paths.insert(TempFilePath("t")).second);
  }
}

TEST(EnvTest, EnvIntAndDoubleParse) {
  ::setenv("PBITREE_TEST_INT", "123", 1);
  ::setenv("PBITREE_TEST_DBL", "1.5", 1);
  ::setenv("PBITREE_TEST_BAD", "abc", 1);
  EXPECT_EQ(EnvInt64("PBITREE_TEST_INT", 0), 123);
  EXPECT_EQ(EnvDouble("PBITREE_TEST_DBL", 0), 1.5);
  EXPECT_EQ(EnvInt64("PBITREE_TEST_BAD", 7), 7);
  EXPECT_EQ(EnvInt64("PBITREE_TEST_UNSET_XYZ", -2), -2);
  ::unsetenv("PBITREE_TEST_INT");
  ::unsetenv("PBITREE_TEST_DBL");
  ::unsetenv("PBITREE_TEST_BAD");
}

TEST(EnvCheckedTest, UnsetReturnsDefaultAndValidParses) {
  ::unsetenv("PBITREE_TEST_CHECKED");
  EXPECT_EQ(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), 9);
  EXPECT_EQ(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 1.0), 0.5);
  ::setenv("PBITREE_TEST_CHECKED", "42", 1);
  EXPECT_EQ(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), 42);
  ::setenv("PBITREE_TEST_CHECKED", "0.25", 1);
  EXPECT_EQ(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 1.0), 0.25);
  // Boundary values are accepted.
  ::setenv("PBITREE_TEST_CHECKED", "100", 1);
  EXPECT_EQ(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), 100);
  ::unsetenv("PBITREE_TEST_CHECKED");
}

TEST(EnvCheckedDeathTest, UnparsableValueAborts) {
  ::setenv("PBITREE_TEST_CHECKED", "abc", 1);
  EXPECT_DEATH(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), "invalid");
  EXPECT_DEATH(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 1.0),
               "invalid");
  ::unsetenv("PBITREE_TEST_CHECKED");
}

TEST(EnvCheckedDeathTest, TrailingJunkAborts) {
  // A partially numeric value ("2x", "1.5 banana") must not be read as
  // its numeric prefix.
  ::setenv("PBITREE_TEST_CHECKED", "2x", 1);
  EXPECT_DEATH(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), "invalid");
  ::setenv("PBITREE_TEST_CHECKED", "1.5 banana", 1);
  EXPECT_DEATH(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 10.0),
               "invalid");
  ::unsetenv("PBITREE_TEST_CHECKED");
}

TEST(EnvCheckedDeathTest, OutOfRangeAborts) {
  ::setenv("PBITREE_TEST_CHECKED", "0", 1);
  EXPECT_DEATH(EnvInt64Checked("PBITREE_TEST_CHECKED", 9, 1, 100), "invalid");
  ::setenv("PBITREE_TEST_CHECKED", "-1", 1);
  EXPECT_DEATH(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 1.0),
               "invalid");
  ::setenv("PBITREE_TEST_CHECKED", "nan", 1);
  EXPECT_DEATH(EnvDoubleChecked("PBITREE_TEST_CHECKED", 0.5, 0.0, 1.0),
               "invalid");
  ::unsetenv("PBITREE_TEST_CHECKED");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace pbitree
