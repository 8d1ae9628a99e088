// Adaptive switching (§4.2's future work, implemented in
// algo/switching.h): a workload whose temporal correlation changes mid-
// stream — calm at first, then violently periodic — and a protocol that
// notices and swaps algorithms without re-initializing the network.
//
//   ./build/examples/adaptive_switching

#include <cstdio>

#include "algo/switching.h"
#include "core/config.h"
#include "core/scenario.h"
#include "data/synthetic_trace.h"

namespace {

// Calm sinusoid for the first half, fast oscillation afterwards.
class RegimeChangeSource : public wsnq::ValueSource {
 public:
  RegimeChangeSource(const wsnq::ValueSource* calm,
                     const wsnq::ValueSource* wild, int64_t change_at)
      : calm_(calm), wild_(wild), change_at_(change_at) {}

  int64_t Value(int sensor, int64_t round) const override {
    return round < change_at_ ? calm_->Value(sensor, round)
                              : wild_->Value(sensor, round);
  }
  int num_sensors() const override { return calm_->num_sensors(); }
  int64_t range_min() const override { return calm_->range_min(); }
  int64_t range_max() const override { return calm_->range_max(); }

 private:
  const wsnq::ValueSource* calm_;
  const wsnq::ValueSource* wild_;
  int64_t change_at_;
};

}  // namespace

int main() {
  using namespace wsnq;

  SimulationConfig config;
  config.num_sensors = 150;
  config.radio_range = 40.0;
  config.rounds = 120;
  config.synthetic.period_rounds = 500;  // calm regime
  config.synthetic.noise_percent = 2;

  StatusOr<Scenario> scenario = BuildScenario(config, 0);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }

  // Build the wild regime over the same sensor positions.
  SimulationConfig wild_config = config;
  wild_config.synthetic.period_rounds = 10;
  wild_config.synthetic.noise_percent = 15;
  StatusOr<Scenario> wild = BuildScenario(wild_config, 0);
  if (!wild.ok()) return 1;
  RegimeChangeSource source(scenario.value().source, wild.value().source,
                            60);
  scenario.value().source = &source;

  SwitchingProtocol protocol(scenario.value().k, source.range_min(),
                             source.range_max(), config.wire, {});
  Network* net = scenario.value().network.get();
  std::printf("%-6s %-8s %-8s %-10s %s\n", "round", "median", "mode",
              "hotspot_mJ", "switches");
  for (int64_t round = 0; round <= config.rounds; ++round) {
    net->BeginRound();
    protocol.RunRound(net, scenario.value().ValuesView(round), round);
    if (round % 10 == 0) {
      std::printf("%-6lld %-8lld %-8s %-10.4f %d\n",
                  static_cast<long long>(round),
                  static_cast<long long>(protocol.quantile()),
                  protocol.iq_active() ? "IQ" : "HBC",
                  net->MaxRoundEnergyOverSensors(), protocol.switches());
    }
  }
  std::printf(
      "\nThe switcher runs IQ while the median is calm and hands over to "
      "HBC when the regime turns volatile (and back, with hysteresis).\n");
  return 0;
}
