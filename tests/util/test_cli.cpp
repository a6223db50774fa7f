#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>

#include "core/study.h"

namespace mlaas {
namespace {

CliFlags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlags, ParsesSpaceSeparated) {
  const auto flags = parse({"--seed", "99"});
  EXPECT_EQ(flags.int_or("seed", 0), 99);
}

TEST(CliFlags, ParsesEqualsForm) {
  const auto flags = parse({"--scale=2.5"});
  EXPECT_DOUBLE_EQ(flags.double_or("scale", 1.0), 2.5);
}

TEST(CliFlags, BareFlagIsTrue) {
  const auto flags = parse({"--quick"});
  EXPECT_TRUE(flags.bool_or("quick", false));
}

TEST(CliFlags, MissingUsesDefault) {
  const auto flags = parse({});
  EXPECT_EQ(flags.get_or("name", "def"), "def");
  EXPECT_EQ(flags.int_or("n", 7), 7);
  EXPECT_FALSE(flags.get("anything").has_value());
}

TEST(CliFlags, RejectsPositional) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

// A typed read of a value that does not parse in full must throw, naming
// the flag, instead of silently keeping a prefix or falling back to false.
void expect_rejected(const CliFlags& flags, const std::function<void(const CliFlags&)>& read,
                     const std::string& flag) {
  try {
    read(flags);
    FAIL() << "expected std::invalid_argument naming " << flag;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
  }
}

TEST(CliFlags, IntegerWithTrailingJunkRejected) {
  expect_rejected(parse({"--seed", "12abc"}),
                  [](const CliFlags& f) { f.int_or("seed", 0); }, "--seed");
}

TEST(CliFlags, FractionalIntegerRejected) {
  expect_rejected(parse({"--threads", "2.5"}),
                  [](const CliFlags& f) { f.int_or("threads", 0); }, "--threads");
}

TEST(CliFlags, NumberWithTrailingJunkRejected) {
  expect_rejected(parse({"--scale", "0.5x"}),
                  [](const CliFlags& f) { f.double_or("scale", 1.0); }, "--scale");
}

TEST(CliFlags, MisspelledBooleanRejected) {
  expect_rejected(parse({"--quick=flase"}),
                  [](const CliFlags& f) { f.bool_or("quick", false); }, "--quick");
}

TEST(CliFlags, BooleanSpellings) {
  const auto flags = parse({"--a=yes", "--b=0", "--c=false", "--d=1", "--e=no"});
  EXPECT_TRUE(flags.bool_or("a", false));
  EXPECT_FALSE(flags.bool_or("b", true));
  EXPECT_FALSE(flags.bool_or("c", true));
  EXPECT_TRUE(flags.bool_or("d", false));
  EXPECT_FALSE(flags.bool_or("e", true));
}

TEST(CliFlags, NonNumericEnvSeedRejected) {
  // MLAAS_SEED=abc used to become seed 0 through an unchecked strtoull.
  ::setenv("MLAAS_SEED", "abc", 1);
  try {
    study_options_from_flags(parse({}));
    ADD_FAILURE() << "expected std::invalid_argument naming MLAAS_SEED";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MLAAS_SEED"), std::string::npos) << e.what();
  }
  ::unsetenv("MLAAS_SEED");
}

// The study/campaign flag binder shared by the bench binaries and
// `mlaas_cli campaign`.

StudyOptions bind(std::initializer_list<const char*> args) {
  return study_options_from_flags(parse(args));
}

TEST(StudyOptionsFromFlags, Defaults) {
  const StudyOptions opt = bind({});
  const StudyOptions def;
  EXPECT_EQ(opt.seed, def.seed);
  EXPECT_DOUBLE_EQ(opt.scale, def.scale);
  EXPECT_EQ(opt.threads, 0);
  EXPECT_FALSE(opt.quick);
  EXPECT_DOUBLE_EQ(opt.campaign.fault_rate, 0.0);
  EXPECT_EQ(opt.campaign.quota_profile, "default");
  EXPECT_EQ(opt.campaign.retry_budget, 6);
  EXPECT_EQ(opt.campaign.chaos_profile, "none");
  EXPECT_FALSE(opt.campaign.breaker.enabled);
  EXPECT_FALSE(opt.campaign.jitter);
  EXPECT_TRUE(opt.campaign.resume);
}

TEST(StudyOptionsFromFlags, ParsesAll) {
  const StudyOptions opt =
      bind({"--seed", "5", "--scale", "0.5", "--quick", "--threads", "3", "--fault-rate",
            "0.25", "--quota-profile", "strict", "--retry-budget", "2", "--chaos-profile",
            "storm", "--breakers", "--breaker-threshold", "4", "--breaker-cooldown", "60",
            "--breaker-probes", "1", "--jitter", "--fresh"});
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.threads, 3);
  const CampaignOptions& c = opt.campaign;
  EXPECT_DOUBLE_EQ(c.fault_rate, 0.25);
  EXPECT_EQ(c.quota_profile, "strict");
  EXPECT_EQ(c.retry_budget, 2);
  EXPECT_EQ(c.chaos_profile, "storm");
  EXPECT_TRUE(c.breaker.enabled);
  EXPECT_EQ(c.breaker.failure_threshold, 4);
  EXPECT_DOUBLE_EQ(c.breaker.cooldown_seconds, 60.0);
  EXPECT_EQ(c.breaker.max_probes, 1);
  EXPECT_TRUE(c.jitter);
  EXPECT_FALSE(c.resume);
  // measurement_options() carries the campaign block whole.
  const MeasurementOptions m = opt.measurement_options();
  EXPECT_EQ(m.campaign.retry_budget, 2);
  EXPECT_TRUE(m.campaign.breaker.enabled);
  EXPECT_EQ(m.threads, 3);
}

TEST(StudyOptionsFromFlags, NegativeThreadsRejectedAtParseTime) {
  // The historical crash: --threads -1 passed through a size_t cast and
  // asked the pool for ~2^64 workers.  It must die here, with a usage
  // error, before any campaign machinery runs.
  EXPECT_THROW(bind({"--threads=-1"}), std::invalid_argument);
  EXPECT_THROW(bind({"--threads=-1000000"}), std::invalid_argument);
}

TEST(StudyOptionsFromFlags, ZeroThreadsMeansHardware) {
  EXPECT_EQ(bind({"--threads", "0"}).threads, 0);
}

TEST(StudyOptionsFromFlags, OutOfRangeValuesNameTheirFlag) {
  const auto expect_flag = [](std::initializer_list<const char*> args, const std::string& flag) {
    try {
      bind(args);
      ADD_FAILURE() << "expected std::invalid_argument naming " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
    }
  };
  expect_flag({"--scale", "0"}, "--scale");
  expect_flag({"--quick", "--scale", "-1"}, "--scale");  // checked as given
  expect_flag({"--fault-rate", "1.5"}, "--fault-rate");
  expect_flag({"--retry-budget", "0"}, "--retry-budget");
  expect_flag({"--breaker-threshold", "0"}, "--breaker-threshold");
  expect_flag({"--breaker-cooldown", "nan"}, "--breaker-cooldown");
  expect_flag({"--breaker-probes", "-1"}, "--breaker-probes");
}

}  // namespace
}  // namespace mlaas
