// Scenario DSL, document layer: grammar, typed accessors, strictness
// (finish/allow_section), and the invalid-fixture corpus under
// tests/sim/scenario_fixtures/ (driven through the full fl binding so
// binding-level errors — unknown keys, bad model kinds — fire too).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "fl/scenario.hpp"
#include "sim/scenario.hpp"

namespace fedca {
namespace {

using sim::scenario::Document;
using sim::scenario::ScenarioError;

Document parse(const std::string& text) {
  return Document::parse(text, "test.scn");
}

TEST(ScenarioDocument, ParsesSectionsKeysCommentsAndBlankLines) {
  Document doc = parse(
      "# comment\n"
      "; also a comment\n"
      "\n"
      "[alpha]\n"
      "one = 1\n"
      "  two   =   padded value  \n"
      "\n"
      "[beta]\n"
      "text = a = b # not a comment\n");
  EXPECT_TRUE(doc.has_section("alpha"));
  EXPECT_TRUE(doc.has_key("alpha", "one"));
  EXPECT_FALSE(doc.has_key("alpha", "three"));
  EXPECT_EQ(doc.get_string("alpha", "two", ""), "padded value");
  // The value is everything after the first '='; '#' does not start an
  // inline comment.
  EXPECT_EQ(doc.get_string("beta", "text", ""), "a = b # not a comment");
}

TEST(ScenarioDocument, HandlesCrLfLineEndings) {
  Document doc = parse("[s]\r\nkey = value\r\n");
  EXPECT_EQ(doc.get_string("s", "key", ""), "value");
}

TEST(ScenarioDocument, MissingKeysFallBack) {
  Document doc = parse("[s]\n");
  EXPECT_EQ(doc.get_string("s", "absent", "dflt"), "dflt");
  EXPECT_TRUE(doc.get_bool("s", "absent", true));
  EXPECT_EQ(doc.get_int("s", "absent", 7, 0, 10), 7);
  EXPECT_EQ(doc.get_double("s", "absent", 0.5, 0.0, 1.0), 0.5);
}

TEST(ScenarioDocument, BoolSpellings) {
  Document doc = parse(
      "[s]\na = true\nb = ON\nc = Yes\nd = 1\n"
      "e = false\nf = off\ng = no\nh = 0\n");
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(doc.get_bool("s", key, false)) << key;
  }
  for (const char* key : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(doc.get_bool("s", key, true)) << key;
  }
}

TEST(ScenarioDocument, IntRangeAndTypeErrorsCarryFileLine) {
  Document doc = parse("[s]\nn = 12\nbad = 1.5\nbig = 99\n");
  EXPECT_EQ(doc.get_int("s", "n", 0, 0, 100), 12);
  try {
    doc.get_int("s", "bad", 0, 0, 100);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.file(), "test.scn");
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("test.scn:3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("expected an integer"),
              std::string::npos);
  }
  EXPECT_THROW(doc.get_int("s", "big", 0, 0, 10), ScenarioError);
}

TEST(ScenarioDocument, U64RejectsNegative) {
  Document doc = parse("[s]\nseed = -3\nok = 18446744073709551615\n");
  EXPECT_THROW(doc.get_u64("s", "seed", 0), ScenarioError);
  EXPECT_EQ(doc.get_u64("s", "ok", 0),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ScenarioDocument, DoubleRejectsNonFiniteAndJunk) {
  Document doc = parse("[s]\na = nan\nb = 1e999\nc = 1.5x\n");
  EXPECT_THROW(doc.get_double("s", "a", 0, 0, 1), ScenarioError);
  EXPECT_THROW(doc.get_double("s", "b", 0, 0, 1), ScenarioError);
  EXPECT_THROW(doc.get_double("s", "c", 0, 0, 1), ScenarioError);
}

TEST(ScenarioDocument, DurationAcceptsNoneAndSeconds) {
  Document doc = parse("[s]\na = none\nb = INF\nc = 2.5\nd = -1\n");
  EXPECT_TRUE(std::isinf(doc.get_duration("s", "a", 0)));
  EXPECT_TRUE(std::isinf(doc.get_duration("s", "b", 0)));
  EXPECT_EQ(doc.get_duration("s", "c", 0), 2.5);
  EXPECT_THROW(doc.get_duration("s", "d", 0), ScenarioError);
  EXPECT_EQ(doc.get_duration("s", "absent", 9.0), 9.0);
}

TEST(ScenarioDocument, DuplicateSectionNamesFirstDefinition) {
  try {
    parse("[s]\na = 1\n[t]\n[s]\n");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("first defined at test.scn:1"),
              std::string::npos);
  }
}

TEST(ScenarioDocument, DuplicateKeyNamesFirstOccurrence) {
  try {
    parse("[s]\na = 1\na = 2\n");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("first set at test.scn:2"),
              std::string::npos);
  }
}

TEST(ScenarioDocument, FinishFlagsEarliestUnknown) {
  Document doc = parse("[known]\nused = 1\nstray = 2\n[unknown]\nx = 3\n");
  (void)doc.get_int("known", "used", 0, 0, 10);
  try {
    doc.finish();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    // 'stray' (line 3) precedes [unknown] (line 4).
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("unknown key 'stray'"),
              std::string::npos);
  }
}

TEST(ScenarioDocument, AllowSectionSuppressesSectionError) {
  Document doc = parse("[meta]\n");
  doc.allow_section("meta");
  EXPECT_NO_THROW(doc.finish());
}

TEST(ScenarioDocument, RemainingListsUnconsumedSortedWithoutConsuming) {
  Document doc = parse("[s]\nzz = 1\naa = 2\nmm = 3\n");
  (void)doc.get_int("s", "mm", 0, 0, 10);
  const auto rest = doc.remaining("s");
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].first, "aa");
  EXPECT_EQ(rest[1].first, "zz");
  // Not consumed by remaining(): finish still rejects them.
  EXPECT_THROW(doc.finish(), ScenarioError);
}

TEST(ScenarioDocument, LineOfReportsSourceLine) {
  Document doc = parse("[s]\n\na = 1\n");
  EXPECT_EQ(doc.line_of("s", "a"), 3u);
  EXPECT_EQ(doc.line_of("s", "b"), 0u);
  EXPECT_EQ(doc.line_of("t", "a"), 0u);
}

// ---------------------------------------------------------------------------
// Invalid-fixture corpus. Every tests/sim/scenario_fixtures/*.scn must be
// rejected; `# expect:` pins a substring of the message and
// `# expect-line:` the reported line.
// ---------------------------------------------------------------------------

struct FixtureExpectation {
  std::string message_substring;
  std::size_t line = 0;
};

FixtureExpectation read_expectations(const std::filesystem::path& path) {
  FixtureExpectation exp;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string kExpect = "# expect: ";
    const std::string kExpectLine = "# expect-line: ";
    if (line.rfind(kExpect, 0) == 0) {
      exp.message_substring = line.substr(kExpect.size());
    } else if (line.rfind(kExpectLine, 0) == 0) {
      exp.line = static_cast<std::size_t>(
          std::stoull(line.substr(kExpectLine.size())));
    }
  }
  return exp;
}

TEST(ScenarioFixtures, EveryInvalidFixtureIsRejectedAtTheRightLine) {
  const std::filesystem::path dir =
      std::filesystem::path(FEDCA_SOURCE_DIR) / "tests" / "sim" /
      "scenario_fixtures";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++count;
    const FixtureExpectation exp = read_expectations(entry.path());
    ASSERT_FALSE(exp.message_substring.empty())
        << entry.path() << " lacks a '# expect:' directive";
    ASSERT_GT(exp.line, 0u)
        << entry.path() << " lacks a '# expect-line:' directive";
    try {
      fl::load_scenario_file(entry.path().string());
      FAIL() << entry.path() << " parsed without error";
    } catch (const ScenarioError& e) {
      EXPECT_EQ(e.file(), entry.path().string()) << entry.path();
      EXPECT_EQ(e.line(), exp.line) << entry.path() << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(exp.message_substring),
                std::string::npos)
          << entry.path() << ": got '" << e.what() << "', wanted '"
          << exp.message_substring << "'";
    }
  }
  EXPECT_GE(count, 10u) << "fixture corpus unexpectedly small";
}

}  // namespace
}  // namespace fedca
