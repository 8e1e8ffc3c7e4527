#include "serpentine/sched/registry.h"

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/obs/metrics.h"
#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::TapeGeometry;

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> UniformBatch(int n, int32_t seed) {
    Lrand48 rng(seed);
    return sim::GenerateUniformRequests(rng, n,
                                        model_.geometry().total_segments());
  }

  Dlt4000LocateModel model_;
};

// ---------------------------------------------------------------------------
// The default registry.
// ---------------------------------------------------------------------------

TEST(DefaultRegistryTest, CarriesEveryAlgorithmUnderItsName) {
  const Registry& registry = Registry::Default();
  std::vector<Algorithm> algorithms(std::begin(kAllAlgorithms),
                                    std::end(kAllAlgorithms));
  algorithms.insert(algorithms.end(), {Algorithm::kLtsp, Algorithm::kLossMt,
                                       Algorithm::kLossMtOrOpt});
  for (Algorithm a : algorithms) {
    const RegistryEntry* entry = registry.Find(AlgorithmName(a));
    ASSERT_NE(entry, nullptr) << AlgorithmName(a);
    EXPECT_EQ(entry->algorithm, a);
    EXPECT_FALSE(entry->description.empty());
  }
  // Nine paper algorithms + five named variants (loss-coalesced,
  // sltf-naive, ltsp-exact, loss-mt, loss-mt-oropt).
  EXPECT_EQ(registry.entries().size(), 14u);
}

TEST(DefaultRegistryTest, LabelsMatchThePaperFigures) {
  const Registry& registry = Registry::Default();
  EXPECT_EQ(registry.Find("fifo")->label, "FIFO");
  EXPECT_EQ(registry.Find("loss")->label, "LOSS");
  EXPECT_EQ(registry.Find("sparse-loss")->label, "SPARSE-LOSS");
  EXPECT_EQ(registry.Find("loss-coalesced")->label, "LOSS+C");
  EXPECT_EQ(registry.Find("sltf-naive")->label, "SLTF(n2)");
}

TEST(DefaultRegistryTest, VariantsCarryTheirOptionOverrides) {
  const Registry& registry = Registry::Default();

  const RegistryEntry* coalesced = registry.Find("loss-coalesced");
  ASSERT_NE(coalesced, nullptr);
  EXPECT_EQ(coalesced->algorithm, Algorithm::kLoss);
  EXPECT_EQ(coalesced->options.loss_coalesce_threshold,
            kDefaultCoalesceThreshold);

  const RegistryEntry* naive = registry.Find("sltf-naive");
  ASSERT_NE(naive, nullptr);
  EXPECT_EQ(naive->algorithm, Algorithm::kSltf);
  EXPECT_TRUE(naive->options.sltf_naive);

  // The base entries keep default options.
  EXPECT_EQ(registry.Find("loss")->options.loss_coalesce_threshold,
            SchedulerOptions{}.loss_coalesce_threshold);
  EXPECT_FALSE(registry.Find("sltf")->options.sltf_naive);
}

TEST(DefaultRegistryTest, ResolveExplainsWhatIsRegistered) {
  const Registry& registry = Registry::Default();
  auto hit = registry.Resolve("weave");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->algorithm, Algorithm::kWeave);

  auto miss = registry.Resolve("bogus");
  ASSERT_FALSE(miss.ok());
  std::string message = miss.status().ToString();
  EXPECT_NE(message.find("bogus"), std::string::npos);
  // The error lists the registered names, variants included.
  EXPECT_NE(message.find("loss-coalesced"), std::string::npos);
  EXPECT_NE(message.find("sltf-naive"), std::string::npos);
}

TEST(DefaultRegistryTest, NamesPreserveRegistrationOrder) {
  // The paper's order first, variants appended, each under its label.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"read", "READ"},
      {"fifo", "FIFO"},
      {"opt", "OPT"},
      {"sort", "SORT"},
      {"sltf", "SLTF"},
      {"scan", "SCAN"},
      {"weave", "WEAVE"},
      {"loss", "LOSS"},
      {"sparse-loss", "SPARSE-LOSS"},
      {"loss-coalesced", "LOSS+C"},
      {"sltf-naive", "SLTF(n2)"},
      {"ltsp-exact", "LTSP"},
      {"loss-mt", "LOSS-MT"},
      {"loss-mt-oropt", "LOSS-MT+OR"},
  };
  const std::vector<RegistryEntry>& entries = Registry::Default().entries();
  ASSERT_EQ(entries.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(entries[i].name, expected[i].first) << i;
    EXPECT_EQ(entries[i].label, expected[i].second) << i;
  }
}

// ---------------------------------------------------------------------------
// Build: registry output equals the direct BuildSchedule call.
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, BuildMatchesDirectBuildSchedule) {
  for (const RegistryEntry& entry : Registry::Default().entries()) {
    std::vector<Request> requests =
        UniformBatch(entry.algorithm == Algorithm::kOpt ? 12 : 64, 5);
    auto via_registry = entry.Build(model_, 0, requests);
    ASSERT_TRUE(via_registry.ok()) << entry.name;
    auto direct = BuildSchedule(model_, 0, requests, entry.algorithm,
                                entry.options);
    ASSERT_TRUE(direct.ok()) << entry.name;
    EXPECT_EQ(via_registry->order, direct->order) << entry.name;
    EXPECT_EQ(via_registry->full_tape_scan, direct->full_tape_scan)
        << entry.name;
    EXPECT_EQ(via_registry->algorithm, entry.algorithm) << entry.name;
  }
}

TEST_F(RegistryTest, BuildIsObservedUnderTheEntryName) {
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry::SetActive(&metrics);
  const RegistryEntry* entry = Registry::Default().Find("loss-mt-oropt");
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->Build(model_, 0, UniformBatch(16, 3)).ok());
  ASSERT_TRUE(entry->Build(model_, 0, UniformBatch(16, 4)).ok());
  // A direct BuildSchedule call stays unobserved.
  ASSERT_TRUE(BuildSchedule(model_, 0, UniformBatch(16, 5), entry->algorithm,
                            entry->options)
                  .ok());
  obs::MetricsRegistry::SetActive(nullptr);
  EXPECT_EQ(metrics.counter("sched.builds.loss-mt-oropt").value(), 2);
}

TEST_F(RegistryTest, VariantBuildsDifferFromTheirBasesWhereExpected) {
  // loss-coalesced coalesces near-adjacent requests: on a dense cluster
  // the service order must differ from plain LOSS at default options only
  // if coalescing actually kicks in, but the schedule always remains a
  // permutation of the batch.
  std::vector<Request> requests = UniformBatch(48, 9);
  auto coalesced =
      Registry::Default().Find("loss-coalesced")->Build(model_, 0, requests);
  ASSERT_TRUE(coalesced.ok());
  EXPECT_TRUE(IsPermutationOfRequests(*coalesced, requests));

  auto naive =
      Registry::Default().Find("sltf-naive")->Build(model_, 0, requests);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(IsPermutationOfRequests(*naive, requests));
  // The naive O(n^2) SLTF and the section-based SLTF implement the same
  // greedy rule; both must produce a valid schedule for the same batch.
  auto fast = Registry::Default().Find("sltf")->Build(model_, 0, requests);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->order.size(), naive->order.size());
}

TEST_F(RegistryTest, BuildUnknownNameFails) {
  // An unknown name resolves to no entry, so nothing can be built from it.
  EXPECT_EQ(Registry::Default().Find("nope"), nullptr);
  auto result = Registry::Default().Resolve("nope");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serpentine::sched
