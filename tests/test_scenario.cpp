// Scenario platform: campaign parsing, sweep expansion, registry
// validation, the determinism contract of the campaign runner (reports
// bit-identical across thread counts) and the golden-verify round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/scenario/scenario.hpp"
#include "sttram/scenario/schema.hpp"

using namespace sttram;
using namespace sttram::scenario;

namespace {

/// A small but representative campaign: one swept scenario (2x2 axes)
/// plus one fixed-seed scenario of a second kind.  Campaign-wide
/// defaults apply to every scenario, so both kinds here accept
/// rows/cols; kinds with disjoint parameters keep them in their own
/// params block instead.
const char* kCampaignText = R"({
  "schema_version": 1,
  "name": "unit",
  "description": "test campaign",
  "seed": 99,
  "defaults": {"rows": 16, "cols": 16},
  "scenarios": [
    {"name": "sweep", "kind": "yield",
     "sweep": {"sigma_common": [0.04, 0.08], "die_sigma": [0.0, 0.01]}},
    {"name": "fixed", "kind": "march",
     "params": {"scheme": "nondestructive", "density": 0.02, "seed": 3}}
  ],
  "tolerances": {"default_rel": 0.0}
})";

CampaignSpec unit_spec() { return parse_campaign_text(kCampaignText); }

}  // namespace

TEST(Schema, ValidatesTypesAndRejectsUnknownKeys) {
  ParamSchema s;
  s.field("count", ParamType::kInteger, "a count")
      .field("rate", ParamType::kNumber, "a rate")
      .field("mode", ParamType::kEnum, "a mode", {"fast", "slow"});
  Json ok = Json::object();
  ok.set("count", Json::integer(3));
  ok.set("rate", Json::number(0.5));
  ok.set("mode", Json::string("fast"));
  EXPECT_NO_THROW(s.validate(ok, "ctx"));

  Json unknown = Json::object();
  unknown.set("typo", Json::integer(1));
  EXPECT_THROW(s.validate(unknown, "ctx"), Error);

  Json bad_enum = Json::object();
  bad_enum.set("mode", Json::string("warp"));
  EXPECT_THROW(s.validate(bad_enum, "ctx"), Error);

  Json bad_type = Json::object();
  bad_type.set("count", Json::string("three"));
  EXPECT_THROW(s.validate(bad_type, "ctx"), Error);
}

TEST(Campaign, ParseReadsAllBlocks) {
  const CampaignSpec spec = unit_spec();
  EXPECT_EQ(spec.name, "unit");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[0].kind, "yield");
  EXPECT_EQ(spec.tolerances.default_rel, 0.0);
  EXPECT_EQ(param_int(spec.defaults, "rows", 0), 16);
}

TEST(Campaign, ParseRejectsBadDocuments) {
  // Wrong schema version.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 2, "name": "x",
                       "scenarios": [{"name": "a", "kind": "yield"}]})"),
               Error);
  // No scenarios.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": []})"),
               Error);
  // Duplicate scenario names.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield"},
                       {"name": "a", "kind": "tail"}]})"),
               Error);
  // Sweep axis colliding with a fixed param.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield",
                        "params": {"rows": 8},
                        "sweep": {"rows": [8, 16]}}]})"),
               Error);
  // Unknown scenario key.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield", "paramz": {}}]})"),
               Error);
}

TEST(Campaign, ExpansionIsCartesianAndOrdered) {
  const std::vector<ScenarioInstance> instances =
      expand_campaign(unit_spec());
  ASSERT_EQ(instances.size(), 5u);  // 2x2 sweep + 1 fixed
  // Axes iterate in sorted key order, rightmost fastest.
  EXPECT_EQ(instances[0].name, "sweep/die_sigma=0,sigma_common=0.04");
  EXPECT_EQ(instances[1].name, "sweep/die_sigma=0,sigma_common=0.08");
  EXPECT_EQ(instances[2].name, "sweep/die_sigma=0.01,sigma_common=0.04");
  EXPECT_EQ(instances[3].name, "sweep/die_sigma=0.01,sigma_common=0.08");
  EXPECT_EQ(instances[4].name, "fixed");
  // Defaults merged under the axis values.
  EXPECT_EQ(param_int(instances[0].params, "rows", 0), 16);
  EXPECT_DOUBLE_EQ(param_number(instances[3].params, "sigma_common", 0.0),
                   0.08);
  // Every instance gets a distinct deterministic seed fork...
  EXPECT_NE(instances[0].seed, instances[1].seed);
  // ...reproducible across expansions.
  const auto again = expand_campaign(unit_spec());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i].seed, again[i].seed);
    EXPECT_EQ(instances[i].index, i);
  }
}

TEST(Campaign, PinnedSeedWinsOverFork) {
  const CampaignSpec spec = parse_campaign_text(
      R"({"schema_version": 1, "name": "x", "seed": 5, "scenarios": [
          {"name": "a", "kind": "yield",
           "params": {"rows": 8, "cols": 8, "seed": 1234}}]})");
  const auto instances = expand_campaign(spec);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].seed, 1234u);
}

TEST(Registry, BuiltinKindsRegisterAndValidate) {
  register_builtin_kinds();
  register_builtin_kinds();  // idempotent
  for (const char* name : {"yield", "tail", "traffic", "controller",
                           "fault_overlay", "margin_sweep", "march"}) {
    EXPECT_NE(Registry::instance().find(name), nullptr) << name;
  }
  ScenarioInstance bad;
  bad.name = "bad";
  bad.kind = "no_such_kind";
  EXPECT_THROW(validate_instance(bad), Error);

  ScenarioInstance typo;
  typo.name = "typo";
  typo.kind = "yield";
  typo.params = Json::object();
  typo.params.set("rowz", Json::integer(8));
  EXPECT_THROW(validate_instance(typo), Error);
}

TEST(Registry, ControllerKindRunsAndReportsFlatMetrics) {
  register_builtin_kinds();
  ScenarioInstance inst;
  inst.name = "ctl";
  inst.kind = "controller";
  inst.seed = 11;
  inst.params = Json::object();
  inst.params.set("channels", Json::integer(2));
  inst.params.set("ranks", Json::integer(1));
  inst.params.set("banks", Json::integer(4));
  inst.params.set("requests", Json::integer(20000));
  validate_instance(inst);
  const ExperimentKind* kind = Registry::instance().find("controller");
  ASSERT_NE(kind, nullptr);
  const Json serial = kind->run(inst, nullptr);
  for (const char* metric :
       {"mean_latency_ns", "p99_latency_ns", "row_hit_rate",
        "bandwidth_mbps", "energy_per_bit_pj", "coalesced_reads",
        "starvation_promotions"}) {
    EXPECT_TRUE(serial.contains(metric)) << metric;
  }
  engine::ThreadPool pool(4);
  EXPECT_EQ(serial.dump(2), kind->run(inst, &pool).dump(2));
}

TEST(Campaign, RunRejectsInvalidParamsBeforeRunning) {
  CampaignSpec spec = unit_spec();
  spec.scenarios[1].params.set("bogus_param", Json::number(1.0));
  EXPECT_THROW(run_campaign(spec), Error);
  // Campaign-wide defaults are validated per scenario too: a default
  // some kind in the campaign does not accept is an error, not noise.
  CampaignSpec bad_default = unit_spec();
  bad_default.defaults.set("sigma_common", Json::number(0.05));
  EXPECT_THROW(run_campaign(bad_default), Error);  // march has no sigma
}

TEST(Campaign, ReportIsBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = unit_spec();
  const std::string serial = run_campaign(spec).to_json().dump(2);
  for (const std::size_t threads : {2u, 8u}) {
    engine::ThreadPool pool(threads);
    const std::string parallel =
        run_campaign(spec, &pool).to_json().dump(2);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(Campaign, ReportRoundTripsThroughJson) {
  const CampaignReport report = run_campaign(unit_spec());
  const CampaignReport back =
      CampaignReport::from_json(Json::parse(report.to_json().dump(2)));
  EXPECT_EQ(back.campaign, report.campaign);
  EXPECT_EQ(back.seed, report.seed);
  ASSERT_EQ(back.scenarios.size(), report.scenarios.size());
  EXPECT_TRUE(diff_reports(report, back, VerifyTolerances{}).empty());
}

TEST(Campaign, ReportRejectsWrongSchemaVersion) {
  Json j = run_campaign(unit_spec()).to_json();
  j.set("schema_version", Json::integer(CampaignReport::kSchemaVersion + 1));
  EXPECT_THROW(CampaignReport::from_json(j), Error);
}

TEST(Campaign, VerifyRoundTripAndPerturbationDiff) {
  const CampaignSpec spec = unit_spec();
  const CampaignReport golden = run_campaign(spec);
  // Re-run vs golden: exact match.
  EXPECT_TRUE(
      diff_reports(golden, run_campaign(spec), spec.tolerances).empty());

  // Perturb one metric: exactly that metric is reported, with values.
  CampaignReport perturbed = golden;
  const std::string metric = perturbed.scenarios[0].metrics.keys().front();
  const double old_value =
      perturbed.scenarios[0].metrics.at(metric).as_number();
  perturbed.scenarios[0].metrics.set(metric, Json::number(old_value + 0.5));
  const auto diffs =
      diff_reports(perturbed, run_campaign(spec), spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].scenario, golden.scenarios[0].name);
  EXPECT_EQ(diffs[0].metric, metric);
  EXPECT_DOUBLE_EQ(diffs[0].golden, old_value + 0.5);
  EXPECT_DOUBLE_EQ(diffs[0].candidate, old_value);
  EXPECT_NE(diffs[0].detail.find("golden"), std::string::npos);

  // A relaxed per-metric tolerance swallows the same perturbation.
  VerifyTolerances relaxed;
  relaxed.per_metric.push_back({metric, 1e6});
  EXPECT_TRUE(
      diff_reports(perturbed, run_campaign(spec), relaxed).empty());
}

TEST(Campaign, VerifyFlagsStructuralMismatches) {
  const CampaignSpec spec = unit_spec();
  const CampaignReport golden = run_campaign(spec);

  // Candidate missing a scenario.
  CampaignReport truncated = golden;
  truncated.scenarios.pop_back();
  auto diffs = diff_reports(golden, truncated, spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].metric.empty());
  EXPECT_NE(diffs[0].detail.find("missing"), std::string::npos);

  // Candidate with an extra metric.
  CampaignReport extra = golden;
  extra.scenarios[0].metrics.set("surprise", Json::number(1.0));
  diffs = diff_reports(golden, extra, spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].detail.find("absent from golden"), std::string::npos);
}

TEST(Registry, NegativeCountsThrowNamingTheScenario) {
  // Integer params that size arrays or request streams must be rejected
  // before they reach a std::size_t, where a negative count wraps into a
  // huge allocation that crashes the run.
  register_builtin_kinds();
  const struct {
    const char* kind;
    const char* key;
    std::int64_t value;
  } cases[] = {{"yield", "rows", -4},
               {"fault_overlay", "rows", -4},
               {"traffic", "requests", -1}};
  for (const auto& c : cases) {
    ScenarioInstance inst;
    inst.name = std::string("negative_") + c.key;
    inst.kind = c.kind;
    inst.params = Json::object();
    inst.params.set(c.key, Json::integer(c.value));
    validate_instance(inst);  // the schema checks the type only
    const ExperimentKind* kind = Registry::instance().find(c.kind);
    ASSERT_NE(kind, nullptr) << c.kind;
    try {
      (void)kind->run(inst, nullptr);
      ADD_FAILURE() << c.kind << ": expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(inst.name), std::string::npos)
          << e.what();
    }
  }
}

TEST(Campaign, RunNamesFailingScenario) {
  // The yield adapter rejects rows == 0 at run time (the schema only
  // checks the type), so the runner's error must name the instance.
  const CampaignSpec spec = parse_campaign_text(
      R"({"schema_version": 1, "name": "x", "scenarios": [
          {"name": "will_fail", "kind": "yield",
           "params": {"rows": 0, "cols": 8}}]})");
  try {
    run_campaign(spec);
    FAIL() << "expected run_campaign to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("will_fail"), std::string::npos)
        << e.what();
  }
}
