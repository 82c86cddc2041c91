// Config parsing, typed accessors, precedence, effective-value echo.
#include <gtest/gtest.h>

#include "util/config.hpp"

namespace fedca {
namespace {

util::Config parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return util::Config::from_args(static_cast<int>(args.size()), args.data());
}

TEST(Config, ParsesKeyValueArgs) {
  util::Config cfg = parse({"alpha=0.1", "clients=32", "name=fedca"});
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", 1.0), 0.1);
  EXPECT_EQ(cfg.get_int("clients", 0), 32);
  EXPECT_EQ(cfg.get_string("name", ""), "fedca");
}

TEST(Config, RejectsMalformedArgs) {
  EXPECT_THROW(parse({"noequals"}), util::ConfigError);
  EXPECT_THROW(parse({"=value"}), util::ConfigError);
}

TEST(Config, FallbacksApply) {
  util::Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing2", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("missing3", true));
  EXPECT_EQ(cfg.get_string("missing4", "dflt"), "dflt");
}

TEST(Config, KeysAreCaseInsensitive) {
  util::Config cfg = parse({"Alpha=3"});
  EXPECT_EQ(cfg.get_int("ALPHA", 0), 3);
  EXPECT_TRUE(cfg.contains("alpha"));
}

TEST(Config, TypeErrorsThrow) {
  util::Config cfg = parse({"x=abc", "y=1.5z"});
  EXPECT_THROW(cfg.get_int("x", 0), util::ConfigError);
  EXPECT_THROW(cfg.get_double("y", 0.0), util::ConfigError);
  EXPECT_THROW(cfg.get_bool("x", false), util::ConfigError);
}

TEST(Config, BoolSpellings) {
  util::Config cfg = parse({"a=1", "b=true", "c=YES", "d=on", "e=0", "f=False",
                            "g=no", "h=OFF"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_TRUE(cfg.get_bool("d", false));
  EXPECT_FALSE(cfg.get_bool("e", true));
  EXPECT_FALSE(cfg.get_bool("f", true));
  EXPECT_FALSE(cfg.get_bool("g", true));
  EXPECT_FALSE(cfg.get_bool("h", true));
}

TEST(Config, RequireStringThrowsWhenMissing) {
  util::Config cfg;
  EXPECT_THROW(cfg.require_string("nope"), util::ConfigError);
  cfg.set("nope", "here");
  EXPECT_EQ(cfg.require_string("nope"), "here");
}

TEST(Config, EffectiveRecordsReads) {
  util::Config cfg = parse({"a=1"});
  (void)cfg.get_int("a", 0);
  (void)cfg.get_int("unset", 9);
  EXPECT_EQ(cfg.dump(), "a=1 unset=9");
}

}  // namespace
}  // namespace fedca
