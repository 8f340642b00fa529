// Golden-master equivalence: the paper-figure bench binaries, pinned to the
// single-bank-equivalent timing preset, must emit byte-for-byte the JSON
// committed under tests/golden/.  This is the contract the hierarchy PR
// makes checkable: introducing channels/ranks/bank groups behind the
// MemoryController API changed *no* output byte of the flat model.
//
// table1_accuracy embeds wall-clock durations ("29.84 ms", or "1.95 s" on a
// slow or sanitized build); those — and only those — are scrubbed from both
// sides before comparing.  The figure fixtures are fully deterministic and
// compare raw.
//
// The hierarchical controller has one too: refresh_tournament on DDR4_2400
// runs all seven policies through REFpb and 4-subarray SARP grants with
// every command stream audited, pinned to the output of the build before
// the controller hot path was made scan- and allocation-free.
//
// The fault path has its own fixture: examples/fault_campaign with all four
// injectors on, pinned to the output of the build before the refresh-physics
// kernel and the VRT fault clock were optimised.
//
// The bench, example and fixture directories arrive as compile definitions
// (VRL_BENCH_DIR, VRL_EXAMPLES_DIR, VRL_GOLDEN_DIR) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

namespace {

std::string BenchDir() { return VRL_BENCH_DIR; }
std::string ExamplesDir() { return VRL_EXAMPLES_DIR; }
std::string GoldenDir() { return VRL_GOLDEN_DIR; }

/// Runs `<dir>/<name> <args> --json -` and captures stdout.  Text-mode
/// tables go to stdout too when --json targets a file, so `-` keeps the
/// pipe pure JSON (plus any trailing verdict line the binary prints).
std::string RunBench(const std::string& dir, const std::string& name,
                     const std::string& args = "") {
  const std::string command = dir + "/" + name + (args.empty() ? "" : " ") +
                              args + " --json - 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for " << command;
    return {};
  }
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << command << " exited with status " << status;
  return output;
}

std::string ReadFixture(const std::string& name) {
  const std::string path = GoldenDir() + "/" + name + ".json";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing fixture " << path;
    return {};
  }
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Replaces embedded wall-clock durations ("29.84 ms", "43.2 us", "1.95 s")
/// with a fixed token.  Applied to both sides so the comparison stays exact
/// on everything that is actually deterministic.  The unit must end the
/// word, so prose such as "ours seconds" survives.
std::string ScrubWallClock(const std::string& text) {
  static const std::regex kDuration("[0-9]+\\.?[0-9]* (ms|us|s)\\b");
  return std::regex_replace(text, kDuration, "<time>");
}

void ExpectMatchesGolden(const std::string& name, bool scrub = false,
                         const std::string& dir = BenchDir(),
                         const std::string& args = "") {
  std::string actual = RunBench(dir, name, args);
  std::string expected = ReadFixture(name);
  ASSERT_FALSE(actual.empty());
  ASSERT_FALSE(expected.empty());
  if (scrub) {
    actual = ScrubWallClock(actual);
    expected = ScrubWallClock(expected);
  }
  EXPECT_EQ(actual, expected)
      << name << " --json output drifted from tests/golden/" << name
      << ".json — if the change is intentional, regenerate the fixture and "
         "say so in the PR; if not, the flat model is no longer "
         "byte-equivalent.";
}

TEST(GoldenMaster, Fig1aRestoreCurve) {
  ExpectMatchesGolden("fig1a_restore_curve");
}

TEST(GoldenMaster, Fig1bPartialRefresh) {
  ExpectMatchesGolden("fig1b_partial_refresh");
}

TEST(GoldenMaster, Fig3RetentionBinning) {
  ExpectMatchesGolden("fig3_retention_binning");
}

TEST(GoldenMaster, Fig4RefreshOverhead) {
  ExpectMatchesGolden("fig4_refresh_overhead");
}

TEST(GoldenMaster, Fig5Equalization) {
  ExpectMatchesGolden("fig5_equalization");
}

TEST(GoldenMaster, Table1Accuracy) {
  ExpectMatchesGolden("table1_accuracy", /*scrub=*/true);
}

TEST(GoldenMaster, RefreshTournamentDdr4) {
  ExpectMatchesGolden("refresh_tournament", /*scrub=*/false, BenchDir(),
                      "--preset DDR4_2400 --windows 1 --workloads 1");
}

TEST(GoldenMaster, FaultCampaignAllInjectors) {
  ExpectMatchesGolden("fault_campaign", /*scrub=*/false, ExamplesDir(),
                      "--windows 4 --temp-excursion 85 --drift 0.05 "
                      "--corruption 0.01");
}

TEST(GoldenMaster, ScrubberOnlyTouchesDurations) {
  EXPECT_EQ(ScrubWallClock("\"t(circuit)\":\"29.84 ms\",\"x\":\"43.2 us\""),
            "\"t(circuit)\":\"<time>\",\"x\":\"<time>\"");
  // Column headers like "t(circuit) ms-vs-us" carry no digit before the
  // unit and survive; plain numbers survive.
  EXPECT_EQ(ScrubWallClock("\"cycles\":\"29.84\",\"unit\":\"ms\""),
            "\"cycles\":\"29.84\",\"unit\":\"ms\"");
  // Seconds, as a slow build prints the circuit column; a digit followed
  // by a word that merely starts with "s" is not a duration.
  EXPECT_EQ(ScrubWallClock("\"t(circuit)\":\"1.95 s\",\"n\":\"4 subarrays\""),
            "\"t(circuit)\":\"<time>\",\"n\":\"4 subarrays\"");
  EXPECT_EQ(ScrubWallClock("SPICE takes hours, ours seconds"),
            "SPICE takes hours, ours seconds");
}

}  // namespace
