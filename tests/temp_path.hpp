#pragma once

// Per-process, per-test temporary file names for the test binaries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace vrl::test {

/// The pid that names this process's temp files.  The first call records
/// it in the environment: gtest's "threadsafe" death tests re-execute the
/// test binary for the child, and the child must name the same files as
/// the parent that reads them back.
inline const std::string& TempOwner() {
  static const std::string owner = [] {
    constexpr const char* kVar = "VRL_TEST_TEMP_OWNER";
    if (const char* inherited = std::getenv(kVar)) {
      return std::string(inherited);
    }
    std::string pid = std::to_string(::getpid());
    ::setenv(kVar, pid.c_str(), 0);
    return pid;
  }();
  return owner;
}

/// Removes the files TempPath named during a test when the test ends, so
/// per-process names do not pile up in the temp directory.
class TempPathCleaner : public ::testing::EmptyTestEventListener {
 public:
  static std::vector<std::string>& Paths() {
    static std::vector<std::string> paths;
    return paths;
  }

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    for (const std::string& path : Paths()) {
      std::remove(path.c_str());
    }
    Paths().clear();
  }
};

/// `name` under gtest's temp directory, prefixed with the owning pid and
/// the running test's suite and name, so two copies of one test binary
/// running at once never write the same journal or export.  The prefix
/// uses no '.', so `name`'s extension stays the file's extension.  The
/// file is removed when the running test ends.
inline std::string TempPath(const std::string& name) {
  static const bool cleaner_installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new TempPathCleaner);  // gtest owns its listeners.
    return true;
  }();
  static_cast<void>(cleaner_installed);
  std::string prefix = TempOwner();
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    prefix += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  // Parameterized suites and tests carry '/' in their names.
  std::replace(prefix.begin(), prefix.end(), '/', '_');
  std::string path = ::testing::TempDir() + prefix + "_" + name;
  TempPathCleaner::Paths().push_back(path);
  return path;
}

}  // namespace vrl::test
