// Unit tests for the utility layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tb::util {
namespace {

TEST(AlignedBuffer, DefaultIsEmpty) {
  AlignedBuffer<double> b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, AllocatesCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u, 4097u}) {
    AlignedBuffer<double> b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes,
              0u);
  }
}

TEST(AlignedBuffer, CustomAlignment) {
  AlignedBuffer<double> b(100, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 4096, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> a(10);
  a[3] = 42.0;
  double* p = a.data();
  AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 42.0);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  AlignedBuffer<double> c(1);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
}

TEST(AlignedBuffer, IterationCoversAll) {
  AlignedBuffer<double> b(17);
  for (auto& x : b) x = 1.0;
  double sum = 0;
  for (const auto& x : b) sum += x;
  EXPECT_EQ(sum, 17.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.elapsed(), 0.0);
  const double before = t.elapsed();
  t.reset();
  EXPECT_LT(t.elapsed(), before + 1.0);
}

TEST(Timer, MlupsConversion) {
  EXPECT_DOUBLE_EQ(mlups(2e6, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(mlups(1e6, 0.0), 0.0);  // guards divide-by-zero
  EXPECT_DOUBLE_EQ(glups(2e9, 1.0), 2.0);
}

TEST(Stats, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleElement) {
  const double x = 3.5;
  const Summary s = summarize(std::span<const double>(&x, 1));
  EXPECT_EQ(s.min, 3.5);
  EXPECT_EQ(s.max, 3.5);
  EXPECT_EQ(s.median, 3.5);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, KnownValues) {
  const std::vector<double> xs{4, 1, 3, 2};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);  // even count: midpoint average
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

TEST(Stats, OddMedian) {
  const std::vector<double> xs{9, 1, 5};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 5.0);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_EQ(rel_diff(0.0, 0.0), 0.0);
}

TEST(Table, AlignedOutputAndCsv) {
  TableWriter t({"a", "bb"});
  t.add("x", 1.5);
  t.add(7, "y");
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream ss;
  t.print(ss);
  EXPECT_NE(ss.str().find("bb"), std::string::npos);
  EXPECT_NE(ss.str().find("1.500"), std::string::npos);

  const std::string path = "/tmp/tb_test_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,bb");
  std::getline(in, line);
  EXPECT_EQ(line, "x,1.500");
  std::filesystem::remove(path);
}

TEST(Table, CsvFailsOnBadPath) {
  TableWriter t({"a"});
  EXPECT_FALSE(t.write_csv("/nonexistent-dir/x.csv"));
}

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog",  "--n",       "42",   "--flag",
                        "--x=7", "--name",    "abc",  "pos1",
                        "--list", "1,2,3",    "--f",  "2.5"};
  Args args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("x", 0), 7);
  EXPECT_EQ(args.get("name", ""), "abc");
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  const auto list = args.get_int_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
}

TEST(Args, Defaults) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int_list("missing", {5}).at(0), 5);
}

TEST(Args, MalformedNumbersThrowNamingTheFlag) {
  const char* argv[] = {"prog", "--steps", "abc", "--n", "12abc",
                        "--f",  "2.5x",    "--T", "1,x,4", "--e=",
                        "--big", "99999999999999999999", "--neg", "-3"};
  Args args(static_cast<int>(std::size(argv)), argv);
  auto message = [](auto&& call) {
    try {
      (void)call();
    } catch (const std::invalid_argument& err) {
      return std::string(err.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] { return args.get_int("steps", 0); }),
            "--steps=abc is not an integer");
  EXPECT_EQ(message([&] { return args.get_int("n", 0); }),
            "--n=12abc is not an integer");
  EXPECT_EQ(message([&] { return args.get_double("f", 0.0); }),
            "--f=2.5x is not a number");
  EXPECT_EQ(message([&] { return args.get_int_list("T", {}); }),
            "--T=x is not an integer");
  EXPECT_EQ(message([&] { return args.get_int("e", 0); }),
            "--e= is not an integer");
  EXPECT_EQ(message([&] { return args.get_int("big", 0); }),
            "--big=99999999999999999999 is not an integer");
  EXPECT_EQ(args.get_int("neg", 0), -3);
}

TEST(Args, BooleansRejectOtherWords) {
  const char* argv[] = {"prog", "--a", "no", "--b=1", "--c", "flase"};
  Args args(static_cast<int>(std::size(argv)), argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_THROW((void)args.get_bool("c", false), std::invalid_argument);
}

/// run_main over `argv` with `body`: the exit code and what it printed.
struct MainResult {
  int rc = -1;
  std::string out, err;
};

MainResult run(std::vector<const char*> argv,
               const std::function<int(const Args&)>& body) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  MainResult r;
  r.rc = run_main(static_cast<int>(argv.size()), argv.data(), body);
  r.out = testing::internal::GetCapturedStdout();
  r.err = testing::internal::GetCapturedStderr();
  return r;
}

TEST(RunMain, BadAllocExitsOneWithAMessage) {
  const MainResult r = run({"/bin/prog"}, [](const Args& args) -> int {
    args.finish();
    throw std::bad_alloc();
  });
  EXPECT_EQ(r.rc, 1);
  EXPECT_EQ(r.err.rfind("prog: ", 0), 0u) << r.err;
}

TEST(RunMain, InvalidArgumentExitsTwo) {
  const MainResult r = run({"prog", "--steps", "abc"}, [](const Args& args) {
    (void)args.get_int("steps", 1, "levels");
    args.finish();
    return 0;
  });
  EXPECT_EQ(r.rc, 2);
  EXPECT_EQ(r.err, "prog: --steps=abc is not an integer\n");
}

TEST(RunMain, UnreadFlagIsRejectedBeforeTheWork) {
  bool worked = false;
  const MainResult r =
      run({"prog", "--n", "4", "--stepz", "3"}, [&](const Args& args) {
        EXPECT_EQ(args.get_int("n", 1, "extent"), 4);
        (void)args.get_int("steps", 1, "levels");
        args.finish();
        worked = true;
        return 0;
      });
  EXPECT_EQ(r.rc, 2);
  EXPECT_FALSE(worked);
  EXPECT_NE(r.err.find("unknown flag --stepz"), std::string::npos) << r.err;
}

TEST(RunMain, HelpListsTheFlagsAndRunsNothing) {
  bool worked = false;
  const auto body = [&](const Args& args) {
    (void)args.get_int("n", 64, "grid extent");
    (void)args.get_choice("variant", "pipelined", {"baseline", "pipelined"});
    args.finish();
    worked = true;
    return 3;
  };
  // --help wins over a malformed value: nothing is parsed, nothing runs.
  const MainResult r = run({"prog", "--help", "--n", "abc"}, body);
  EXPECT_EQ(r.rc, 0);
  EXPECT_FALSE(worked);
  EXPECT_EQ(r.out,
            "usage: prog [--flag value]...\n"
            "  --n 64               grid extent\n"
            "  --variant pipelined  (baseline|pipelined)\n");
}

TEST(RunMain, BodyThatNeverChecksItsFlagsFails) {
  const MainResult r = run({"prog"}, [](const Args&) { return 0; });
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("Args::finish"), std::string::npos) << r.err;
}

TEST(ThreadPool, RunsAllWorkers) {
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](int w) { hits[static_cast<std::size_t>(w)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int j = 0; j < 50; ++j)
    pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, SingleWorker) {
  ThreadPool pool(1);
  int value = 0;
  pool.run([&](int w) { value = w + 100; });
  EXPECT_EQ(value, 100);
}

}  // namespace
}  // namespace tb::util
