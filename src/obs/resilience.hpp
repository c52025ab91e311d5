// Degradation metrics of the resilience campaign.
//
// A campaign produces one DegradationSample per (fabric, engine, fault
// stage): how much of the fabric is gone, what the rerouted engine still
// reaches, how far paths inflated, how much throughput the traffic retains,
// and whether the shipped tables are still deadlock-free.  The series is
// plain data; the resilience_campaign experiment writes it into REPRO.json
// as one result table.
//
// Two throughput columns, on purpose:
//  - `throughput`: delivered fraction of injection bandwidth measured at
//    this stage (raw; may wiggle upward when a reroute happens to spread
//    load better).
//  - `retention`: the non-increasing envelope min(throughput / intact
//    throughput) over all stages so far -- the operator-facing "capacity
//    we can still guarantee after k failures" curve.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hxsim::obs {

struct DegradationSample {
  std::string fabric;   // e.g. "hyperx-12x8"
  std::string engine;   // e.g. "dfsssp"
  std::int32_t stage = 0;  // 0 = intact fabric
  // Cumulative damage at this stage.
  std::int32_t cables_failed = 0;
  std::int32_t switches_failed = 0;
  // Routability (route_census over all ordered terminal pairs).
  double reachability = 1.0;
  std::int64_t lost_pairs = 0;
  std::int64_t lost_lid_paths = 0;
  // Path-length inflation vs the intact fabric's mean.
  double mean_switch_hops = 0.0;
  double hop_inflation = 1.0;
  // Throughput (see header comment).
  double throughput = 0.0;
  double retention = 1.0;
  // Deadlock audit of the shipped tables.
  bool cdg_acyclic = true;
  std::int32_t vls_used = 1;
  /// LFT entries forwarding onto a disabled channel (route_census); must be
  /// zero after every reroute stage -- a non-zero value is a shipped
  /// blackhole.
  std::int64_t blackhole_columns = 0;
  // Online (mid-run) fault variant: filled by the online_resilience
  // campaign, zero for the static between-runs campaign.
  std::int64_t packets_lost_in_flight = 0;
  std::int64_t packets_blackholed = 0;
  std::int64_t retries = 0;
  std::int64_t messages_abandoned = 0;
  /// True when the engine failed outright at this stage (threw); all
  /// metrics above are zeroed.
  bool engine_failed = false;
};

class DegradationSeries {
 public:
  void add(DegradationSample sample);

  [[nodiscard]] const std::vector<DegradationSample>& samples() const noexcept {
    return samples_;
  }

  /// True iff, for every (fabric, engine), `retention` never increases in
  /// insertion (= stage) order.  The campaign's acceptance property.
  [[nodiscard]] bool retention_monotone() const;

  /// True iff every sample of `engine` (any fabric) has an acyclic CDG.
  [[nodiscard]] bool all_acyclic(std::string_view engine) const;

 private:
  std::vector<DegradationSample> samples_;
};

}  // namespace hxsim::obs
