// Self-tests of the benchmark's own code: percentile math, the reply
// checker, the metric manifest, and a short smoke run of each workload.
//
//   python3 stackbench/run.py --self-test
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "core/artifact_store.h"
#include "core/blackbox.h"
#include "core/catalog.h"
#include "core/license.h"
#include "net/sim_client.h"
#include "server/delivery_service.h"
#include "stackbench.h"

namespace stackbench {
namespace {

using jhdl::Json;
using jhdl::Logic4;

TEST(PercentileTest, KnownSample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 25.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(p99_supported(999));
  EXPECT_TRUE(p99_supported(1000));
}

TEST(CheckerTest, CatchesCorruptedMissingAndMisshapenValues) {
  const Layout& lay = layout(kR1);
  const std::uint64_t want = make_reference(kR1)->step(1234);
  EXPECT_EQ(want, static_cast<std::uint64_t>(1234 * -56) & ((1u << 23) - 1));
  const Values good{{"product", BitVector::from_uint(23, want)}};
  EXPECT_TRUE(outputs_match(lay, want, good));

  Values flipped = good;
  BitVector& bits = flipped.at("product");
  bits.set(5, bits.get(5) == Logic4::One ? Logic4::Zero : Logic4::One);
  EXPECT_FALSE(outputs_match(lay, want, flipped));
  Values undriven = good;
  undriven.at("product").set(0, Logic4::X);
  EXPECT_FALSE(outputs_match(lay, want, undriven));
  EXPECT_FALSE(outputs_match(lay, want, {}));
  EXPECT_FALSE(outputs_match(
      lay, want, {{"product", BitVector::from_uint(22, want)}}));
  Values extra = good;
  extra.emplace("spare", BitVector::from_uint(1, 0));
  EXPECT_FALSE(outputs_match(lay, want, extra));
}

TEST(CheckerTest, BatchDigestMatchesTheKernelAndCatchesCorruption) {
  const Pool pool = make_pool(Workload::BatchSweep, 3, 1, 1, 0);
  const BatchOp& op = pool.streams[0].batch_ops[0];
  jhdl::core::ArtifactStore store;
  jhdl::core::ParamMap params;
  for (const auto& [k, v] : roster()[kR6].params) params.set(k, v);
  auto model = store
                   .get_or_build(jhdl::core::standard_catalog().find(
                                     roster()[kR6].module),
                                 params)
                   ->instantiate(1);
  const Series cycles = model->cycle_batch(kBatchCycles, op.stream(false), {});
  const Series patterns =
      model->pattern_batch(op.stream(true), kPatternCycles, {});
  EXPECT_TRUE(batch_matches(cycles, kBatchCycles, op.cycle_digest));
  EXPECT_TRUE(batch_matches(patterns, kPatterns, op.pattern_digest));

  Series corrupted = cycles;
  BitVector& sample = corrupted.at("acc")[17];
  sample.set(100, sample.get(100) == Logic4::One ? Logic4::Zero : Logic4::One);
  EXPECT_FALSE(batch_matches(corrupted, kBatchCycles, op.cycle_digest));
  Series short_column = cycles;
  short_column.at("acc").pop_back();
  EXPECT_FALSE(batch_matches(short_column, kBatchCycles, op.cycle_digest));
  EXPECT_FALSE(batch_matches({}, kBatchCycles, op.cycle_digest));
}

TEST(CheckerTest, ErrorReplyAndLostConnectionFailTheOp) {
  using jhdl::core::LicensePolicy;
  using jhdl::core::LicenseTier;
  jhdl::server::DeliveryService service(jhdl::core::standard_catalog());
  service.add_license(LicensePolicy::make("t", LicenseTier::Evaluation));
  const std::uint16_t port = service.start();
  jhdl::net::ConnectSpec spec;
  spec.customer = "t";
  spec.module = roster()[kR1].module;
  spec.params = roster()[kR1].params;
  jhdl::net::SimClient client(port, spec);
  const Layout& lay = layout(kR1);
  auto ref = make_reference(kR1);
  const std::uint64_t want = ref->step(99);

  EXPECT_TRUE(checked([&] {
    return outputs_match(lay, want, client.eval(unpack_inputs(lay, 99), 1));
  }));
  // The service answers an Eval of an unknown port with an Error reply.
  EXPECT_FALSE(checked([&] {
    return outputs_match(lay, want,
                         client.eval({{"nosuch", BitVector::from_uint(4, 1)}}, 1));
  }));
  // A licence the service does not know is refused at the Hello.
  EXPECT_FALSE(checked([&] {
    jhdl::net::ConnectSpec stranger = spec;
    stranger.customer = "stranger";
    jhdl::net::SimClient refused(port, stranger);
    return true;
  }));
  service.stop();
  // No reply at all: the service is gone.
  EXPECT_FALSE(checked([&] {
    return outputs_match(lay, want, client.eval(unpack_inputs(lay, 99), 1));
  }));
}

TEST(PoolTest, SameSeedSameStreamAndNoRepeatedStimulus) {
  for (Workload w : {Workload::CosimEval, Workload::SessionOpen,
                     Workload::BatchSweep}) {
    const Pool a = make_pool(w, 5, 2, 8, 2);
    const Pool b = make_pool(w, 5, 2, 8, 2);
    const Pool c = make_pool(w, 6, 2, 8, 2);
    EXPECT_EQ(a.digest, b.digest) << workload_name(w);
    EXPECT_NE(a.digest, c.digest) << workload_name(w);
    ASSERT_EQ(a.streams.size(), 3u);
    EXPECT_EQ(a.streams[2].size(), 2u);
  }
  // cosim-eval draws R1's 2^16 inputs without repeats within an epoch.
  const Pool p = make_pool(Workload::CosimEval, 9, 3, 20000, 5536);
  std::vector<int> seen(1 << 16, 0);
  for (const Stream& s : p.streams) {
    for (std::uint16_t x : s.eval_inputs) ++seen[x];
  }
  for (int count : seen) ASSERT_EQ(count, 1);
  // batch-sweep ops expand from per-op keys. Equal stimulus would give
  // equal expected replies, so distinct digests show distinct stimulus.
  const Pool q = make_pool(Workload::BatchSweep, 9, 3, 40, 5);
  std::set<std::uint64_t> digests;
  std::size_t ops = 0;
  for (const Stream& s : q.streams) {
    for (const BatchOp& op : s.batch_ops) {
      digests.insert(op.cycle_digest);
      ++ops;
    }
  }
  EXPECT_EQ(digests.size(), ops);
}

/// One short run per workload and mode, shared by the tests below.
const Result& smoke(Workload w, bool trace) {
  static std::map<std::pair<int, bool>, Result> cache;
  auto key = std::make_pair(static_cast<int>(w), trace);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Options o;
    o.workload = w;
    o.seed = 42;
    o.seconds = 0.4;
    o.trace = trace;
    o.clients = 2;
    o.setups = 1;
    o.replay_ops = 16;
    it = cache.emplace(key, run(o)).first;
  }
  return it->second;
}

class SmokeTest : public ::testing::TestWithParam<std::tuple<Workload, bool>> {};

TEST_P(SmokeTest, EndsWithZeroFailedOps) {
  const auto [w, trace] = GetParam();
  const Result& r = smoke(w, trace);
  for (const std::string& p : r.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  const Json& exact = r.header.at("exact");
  EXPECT_EQ(static_cast<std::size_t>(exact.at("ops").as_int()), check_ops(w));
  EXPECT_EQ(exact.at("store_misses").as_int(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SmokeTest,
    ::testing::Combine(::testing::Values(Workload::CosimEval,
                                         Workload::SessionOpen,
                                         Workload::BatchSweep),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = workload_name(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + (std::get<1>(info.param) ? "Traced" : "Untraced");
    });

TEST(ManifestTest, EveryNamedMetricIsPrintedWithItsUnit) {
  std::ifstream in(STACKBENCH_MANIFEST);
  ASSERT_TRUE(in) << STACKBENCH_MANIFEST;
  std::stringstream text;
  text << in.rdbuf();
  const Json manifest = Json::parse(text.str());
  for (bool trace : {false, true}) {
    const Json& list = manifest.at(trace ? "per_layer" : "end_to_end");
    const auto& known = trace ? per_layer_metrics() : end_to_end_metrics();
    for (Workload w : {Workload::CosimEval, Workload::SessionOpen,
                       Workload::BatchSweep}) {
      const Result& r = smoke(w, trace);
      Options o;
      o.trace = trace;
      const std::string table = render(o, r);
      const std::string line = result_json(r);
      for (const Json& m : list.items()) {
        const std::string name = m.at("name").as_string();
        const std::string unit = m.at("unit").as_string();
        auto it = r.metrics.find(name);
        ASSERT_NE(it, r.metrics.end()) << name << " on " << workload_name(w);
        EXPECT_EQ(it->second.unit, unit) << name;
        EXPECT_NE(std::find(known.begin(), known.end(),
                            std::make_pair(name, unit)),
                  known.end())
            << name;
        EXPECT_NE(table.find(name), std::string::npos) << name;
        EXPECT_NE(line.find("\"" + name + "\": {\"value\": "),
                  std::string::npos)
            << name;
      }
    }
  }
  // Every per-layer metric the traced run prints is in the manifest.
  EXPECT_EQ(manifest.at("per_layer").size(), per_layer_metrics().size());
}

}  // namespace
}  // namespace stackbench
