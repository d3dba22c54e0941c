// Death tests (EXPECT_EXIT on the strict env and flag parsers) run in the
// "threadsafe" style: the child re-executes the test binary and runs only
// the death test, instead of forking the parent as it stands. When the whole
// suite runs as one process, earlier tests have already started thread-pool
// workers, and a child forked from a multi-threaded process may deadlock or,
// under ASan, crash before it reaches the expected exit. (ctest runs each
// test in its own process, so there the two styles agree.)
#include <gtest/gtest.h>

namespace {

class ThreadsafeDeathTests : public ::testing::Environment {
 public:
  void SetUp() override { ::testing::GTEST_FLAG(death_test_style) = "threadsafe"; }
};

// gtest owns registered environments and sets them up before the first test.
[[maybe_unused]] const ::testing::Environment* const kThreadsafeDeathTests =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTests);

}  // namespace
