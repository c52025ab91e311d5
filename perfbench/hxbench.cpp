// hxbench: the repository benchmark's measuring binary.
//
// Builds the paper's two fabrics and the routings a workload needs, then
// runs the workload's body in whole passes and reports host timings,
// simulated-result digests and (with --traced) per-layer counters.  Every
// timing is taken around calls into the libraries' public functions, from
// outside them; nothing in src/ knows it is being measured.
//
//   hxbench --workload imb_sweep|proxy_apps|pkt_sweep --seed <n>
//           [--seconds <s>] [--passes <n>] [--setup-reps <n>]
//           [--threads <n>] [--traced]
//
// Plain mode repeats the body until --seconds have elapsed and at least
// --passes passes ran; each pass builds fresh clusters and transports, so
// lazy per-cluster state is paid on every pass.  The MPI workloads' cells
// and pkt_sweep's replications are independent and run on an exec pool of
// --threads workers (default: the CPUs this process may use).  Traced mode runs one pass,
// a 1-thread pass, and for the MPI workloads a replay of every schedule's
// rounds through Cluster::route_message and FlowSim::fair_rates that
// times each layer, measures exact reuse and must reproduce every
// Transport::execute result bit for bit.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "exec/exec.hpp"
#include "mpi/cluster.hpp"
#include "obs/flow_trace.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/adaptive.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"
#include "workloads/apps.hpp"
#include "workloads/imb.hpp"
#include "workloads/pkt_sweep.hpp"

namespace {

using namespace hxsim;
using Clock = std::chrono::steady_clock;

// --- workload shape (fixed: changing any of these changes the benchmark) --

/// Missing-cable sample of the paper fabrics (PaperSystem's default).
constexpr std::uint64_t kFaultSeed = 1003;
/// imb_sweep node counts: the Fig. 4 sweep at a few switch-aligned sizes
/// (below the 448-node corner the fig4 experiment skips for Alltoall).
constexpr std::array<std::int32_t, 3> kImbNodes{28, 112, 224};
/// proxy_apps node counts, switch-aligned and power-of-two apps.
constexpr std::array<std::int32_t, 3> kAppNodes{56, 224, 672};
constexpr std::array<std::int32_t, 3> kAppNodesPow2{64, 256, 512};
/// pkt_sweep: replications per (arm, pattern) and bytes per message.
constexpr std::int32_t kPktSeeds = 8;
constexpr std::int64_t kPktBytes = 256 * 1024;
constexpr std::int32_t kPktMessages = 256;
/// Set-up repeats: at least --setup-reps, more while under the budget.
constexpr double kSetupBudgetS = 2.0;
constexpr std::size_t kMaxSetupReps = 9;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int32_t affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Fixed integer loop: a host-speed probe, reported and never used to
/// scale a metric.
double host_probe_s() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::int32_t i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + x;
  return since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a over the exact bit patterns of the simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Independent child seed for one (purpose, indices) tuple.
std::uint64_t derive(std::uint64_t seed, std::initializer_list<std::uint64_t> keys) {
  std::uint64_t state = seed;
  std::uint64_t h = stats::split_mix64(state);
  for (const std::uint64_t k : keys) {
    state = h ^ (k + 0x632be59bd9b4e019ULL);
    h = stats::split_mix64(state);
  }
  return h;
}

// --- set-up ---------------------------------------------------------------

struct SetupTimes {
  double topo = 0, ftree = 0, sssp = 0, dfsssp = 0, parx = 0, total = 0;
};

/// The paper fabrics (PaperSystem's topologies, fault sample and engines)
/// and the routings a workload uses.  The MPI workloads route all four
/// planes of the faulty fabrics.  pkt_sweep needs ftree on the tree and
/// DFSSSP on the HyperX, on the intact fabrics: DalRouter finds no route
/// around the 15 missing HyperX cables ("adaptive router returned no
/// route"), so the packet arms run where all three can complete.
struct Fabrics {
  std::unique_ptr<topo::FatTree> ft;
  std::unique_ptr<topo::HyperX> hx;
  std::optional<routing::LidSpace> ft_lids, hx_lids, parx_lids;
  routing::RouteResult ft_ftree, ft_sssp, hx_dfsssp, hx_parx;
};

Fabrics build_fabrics(bool mpi_planes, SetupTimes& t) {
  const bool with_faults = mpi_planes;
  const Clock::time_point start = Clock::now();
  Fabrics f;
  Clock::time_point t0 = Clock::now();
  f.ft = std::make_unique<topo::FatTree>(topo::paper_fat_tree_params());
  f.hx = std::make_unique<topo::HyperX>(topo::paper_hyperx_params());
  if (with_faults) {
    topo::inject_link_faults(f.ft->topo(), topo::kPaperFatTreeMissingLinks,
                             kFaultSeed);
    topo::inject_link_faults(f.hx->topo(), topo::kPaperHyperXMissingLinks,
                             kFaultSeed);
  }
  t.topo = since(t0);

  f.ft_lids = routing::LidSpace::consecutive(f.ft->topo().num_terminals(), 0);
  f.hx_lids = routing::LidSpace::consecutive(f.hx->topo().num_terminals(), 0);
  f.parx_lids = core::make_parx_lid_space(*f.hx);

  t0 = Clock::now();
  f.ft_ftree = routing::FtreeEngine(*f.ft).compute(f.ft->topo(), *f.ft_lids);
  t.ftree = since(t0);
  if (mpi_planes) {
    // PaperSystem routes the tree's "SSSP" plane with the deadlock-free
    // variant; so does the benchmark.
    t0 = Clock::now();
    f.ft_sssp = routing::DfssspEngine(8).compute(f.ft->topo(), *f.ft_lids);
    t.sssp = since(t0);
  }
  t0 = Clock::now();
  f.hx_dfsssp = routing::DfssspEngine(8).compute(f.hx->topo(), *f.hx_lids);
  t.dfsssp = since(t0);
  if (mpi_planes) {
    t0 = Clock::now();
    core::ParxOptions opts;
    opts.max_vls = 8;
    f.hx_parx = core::ParxEngine(*f.hx, core::DemandMatrix{}, opts)
                    .compute(f.hx->topo(), *f.parx_lids);
    t.parx = since(t0);
  }
  t.total = since(start);
  return f;
}

/// Hash of both fabrics and every routing table built: identical for
/// every --seed.
std::string fabric_digest(const Fabrics& f) {
  Digest d;
  for (const topo::Topology* topo : {&f.ft->topo(), &f.hx->topo()}) {
    for (topo::ChannelId c = 0; c < topo->num_channels(); ++c) {
      const topo::Channel& ch = topo->channel(c);
      d.add(static_cast<std::int64_t>(ch.src.index) * 4 +
            static_cast<std::int64_t>(ch.src.kind) * 2 +
            static_cast<std::int64_t>(ch.enabled));
      d.add(static_cast<std::int64_t>(ch.dst.index) * 2 +
            static_cast<std::int64_t>(ch.dst.kind));
    }
  }
  for (const routing::RouteResult* r :
       {&f.ft_ftree, &f.ft_sssp, &f.hx_dfsssp, &f.hx_parx}) {
    const routing::ForwardingTables& lft = r->tables;
    for (topo::SwitchId s = 0; s < lft.num_switches(); ++s)
      for (routing::Lid l = 0; l <= lft.max_lid(); ++l) {
        d.add(static_cast<std::int64_t>(lft.next(s, l)));
        d.add(static_cast<std::int64_t>(r->vls.vl(s, l)));
      }
  }
  return d.hex();
}

// --- MPI workloads --------------------------------------------------------

/// The four routed planes as fresh clusters (copies of the set-up routing),
/// built at the start of every pass.
struct Planes {
  mpi::Cluster ft_ftree, ft_sssp, hx_dfsssp, hx_parx;

  explicit Planes(const Fabrics& f)
      : ft_ftree(f.ft->topo(), *f.ft_lids, f.ft_ftree, mpi::make_ob1()),
        ft_sssp(f.ft->topo(), *f.ft_lids, f.ft_sssp, mpi::make_ob1()),
        hx_dfsssp(f.hx->topo(), *f.hx_lids, f.hx_dfsssp, mpi::make_ob1()),
        hx_parx(f.hx->topo(), *f.parx_lids, f.hx_parx, mpi::make_bfo()) {}

  struct Config {
    const mpi::Cluster* cluster;
    mpi::PlacementKind placement;
  };
  static constexpr std::size_t kNumConfigs = 5;
  /// PaperSystem's five (topology, routing, placement) combinations.
  [[nodiscard]] std::array<Config, kNumConfigs> configs() const {
    return {Config{&ft_ftree, mpi::PlacementKind::kLinear},
            Config{&ft_sssp, mpi::PlacementKind::kClustered},
            Config{&hx_dfsssp, mpi::PlacementKind::kLinear},
            Config{&hx_dfsssp, mpi::PlacementKind::kRandom},
            Config{&hx_parx, mpi::PlacementKind::kClustered}};
  }
};

/// Digest and counts of one walk over a workload.  An MPI cell records
/// each schedule's time in `values`; merge() folds cells into the digest
/// in cell order, and the replay compares against the merged values.
struct Tally {
  Digest digest;
  std::vector<double> values;
  std::int64_t attempted = 0, failed = 0;
  std::int64_t rounds = 0, messages = 0;

  void record(const mpi::Schedule& s, std::optional<double> t) {
    ++attempted;
    rounds += static_cast<std::int64_t>(s.size());
    for (const mpi::Round& r : s) messages += static_cast<std::int64_t>(r.size());
    const bool ok = t && std::isfinite(*t) && *t > 0.0;
    if (!ok) ++failed;
    values.push_back(ok ? *t : std::nan(""));
  }
  /// Appends another walk's outputs after this one's, in order.
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    rounds += other.rounds;
    messages += other.messages;
    for (const double v : other.values) {
      digest.add(v);
      values.push_back(v);
    }
  }
};

/// One independent unit of an MPI workload: one (topology, routing,
/// placement) combination at one node count, running its schedules in
/// order on one Transport -- one IMB operation's size sweep, or one proxy
/// app's iteration.
struct MpiCell {
  std::size_t config = 0;
  std::size_t item = 0;  // index into imb_figure4_ops() or proxy_apps()
  std::int32_t nodes = 0;
  std::uint64_t placement_seed = 0, transport_seed = 0;
};

/// The cells of imb_sweep or proxy_apps, largest node counts first (and
/// within one, the later and heavier IMB operations and apps first) so
/// that a pool's tail is short.  The order fixes the digest.
std::vector<MpiCell> mpi_cells(const std::string& workload,
                               std::uint64_t seed) {
  std::vector<MpiCell> cells;
  auto add = [&](std::size_t item, std::int32_t n) {
    for (std::size_t c = 0; c < Planes::kNumConfigs; ++c)
      cells.push_back({c, item, n, derive(seed, {1, item, c, std::uint64_t(n)}),
                       derive(seed, {2, item, c, std::uint64_t(n)})});
  };
  if (workload == "imb_sweep") {
    for (std::size_t op = 0; op < workloads::imb_figure4_ops().size(); ++op)
      for (const std::int32_t n : kImbNodes) add(op, n);
  } else {
    const std::vector<workloads::AppId> apps = workloads::proxy_apps();
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const bool pow2 = workloads::make_app(apps[a], 4).power_of_two_scaling;
      for (const std::int32_t n : pow2 ? kAppNodesPow2 : kAppNodes) add(a, n);
    }
  }
  std::stable_sort(cells.begin(), cells.end(),
                   [](const MpiCell& a, const MpiCell& b) {
                     return a.nodes != b.nodes ? a.nodes > b.nodes
                                               : a.item > b.item;
                   });
  return cells;
}

/// Runs one cell's schedules through `lane`: open(cluster, placement,
/// seed), then run(schedule) -> simulated time, nullopt on failure.
template <class Lane>
Tally run_cell(const std::string& workload, const MpiCell& cell,
               const Planes& planes, std::int32_t machine, Lane& lane) {
  const Planes::Config config = planes.configs()[cell.config];
  stats::Rng rng(cell.placement_seed);
  lane.open(*config.cluster,
            mpi::Placement::make(config.placement, cell.nodes,
                                 mpi::Placement::whole_machine(machine), rng),
            cell.transport_seed);
  Tally tally;
  if (workload == "imb_sweep") {
    const workloads::ImbOp op = workloads::imb_figure4_ops()[cell.item];
    for (const std::int64_t bytes : workloads::imb_message_sizes(op)) {
      const mpi::Schedule s = workloads::imb_schedule(op, cell.nodes, bytes);
      tally.record(s, lane.run(s));
    }
  } else {
    const workloads::AppWorkload app =
        workloads::make_app(workloads::proxy_apps()[cell.item], cell.nodes);
    tally.record(app.iteration_comm, lane.run(app.iteration_comm));
  }
  return tally;
}

/// Runs schedules through mpi::Transport, timing each execute call.
class TransportLane {
 public:
  void open(const mpi::Cluster& cluster, mpi::Placement placement,
            std::uint64_t seed) {
    transport_.emplace(cluster, std::move(placement), seed);
  }
  std::optional<double> run(const mpi::Schedule& s) {
    const Clock::time_point t0 = Clock::now();
    std::optional<double> t;
    try {
      t = transport_->execute(s);
    } catch (const std::exception&) {
      t.reset();
    }
    execute_s += since(t0);
    return t;
  }

  double execute_s = 0.0;

 private:
  std::optional<mpi::Transport> transport_;
};

template <class T>
struct VecHash {
  std::size_t operator()(const std::vector<T>& v) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ v.size();
    for (const T x : v) {
      h ^= static_cast<std::uint64_t>(x);
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Replays Transport::execute from outside: routes every message through
/// Cluster::route_message with the transport's seed and order, solves each
/// round with FlowSim::fair_rates, and recomputes the round time with the
/// transport's formula.  Times each layer per round and records exact
/// reuse over every cell it replays: distinct paths, and distinct rounds
/// keyed on the full routed path sequence.
class ReplayLane {
 public:
  void open(const mpi::Cluster& cluster, mpi::Placement placement,
            std::uint64_t seed) {
    cluster_ = &cluster;
    placement_ = std::move(placement);
    rng_.emplace(seed);
    flows_.emplace(cluster.topo(), cluster.link());
  }

  std::optional<double> run(const mpi::Schedule& s) {
    const mpi::PmlConfig& pml = cluster_->pml();
    const sim::LinkModel& link = cluster_->link();
    std::vector<std::int32_t> src_count(
        static_cast<std::size_t>(placement_.num_ranks()), 0);
    std::vector<std::int32_t> dst_count(src_count.size(), 0);
    std::vector<sim::NetMessage> msgs;
    std::vector<sim::Flow> flows;
    std::vector<std::int32_t> key;
    double total = 0.0;
    for (const mpi::Round& round : s) {
      if (round.empty()) continue;
      msgs.clear();
      const Clock::time_point t0 = Clock::now();
      for (const mpi::RankMsg& rm : round) {
        auto routed = cluster_->route_message(
            placement_.node_of(rm.src_rank), placement_.node_of(rm.dst_rank),
            rm.bytes, *rng_);
        if (!routed) return std::nullopt;
        msgs.push_back(std::move(*routed));
      }
      route_s += since(t0);
      route_calls += static_cast<std::int64_t>(round.size());

      flows.clear();
      key.clear();
      for (const sim::NetMessage& m : msgs) {
        flows.push_back(sim::Flow{m.path, m.bytes});
        if (m.path.empty()) {
          key.push_back(-1);
          continue;
        }
        ++walks;
        const auto [it, fresh] = paths.try_emplace(
            m.path, static_cast<std::int32_t>(paths.size()));
        key.push_back(it->second);
      }
      const Clock::time_point t1 = Clock::now();
      const std::vector<double> rate = flows_->fair_rates(flows);
      solve_s += since(t1);
      ++solves;
      flows_total += static_cast<std::int64_t>(flows.size());

      auto [rit, fresh] = rounds.try_emplace(key, 0);
      if (fresh) {
        obs::FlowSolveTrace trace;
        (void)flows_->fair_rates(flows, &trace);
        rit->second = trace.solves.empty() ? 0 : trace.solves[0].num_levels();
      }
      ++level_hist[rit->second];

      // Transport::round_time's formula, operation for operation.
      double time = 0.0;
      for (std::size_t i = 0; i < round.size(); ++i) {
        const mpi::RankMsg& rm = round[i];
        const std::int32_t si =
            src_count[static_cast<std::size_t>(rm.src_rank)]++;
        const std::int32_t di =
            dst_count[static_cast<std::size_t>(rm.dst_rank)]++;
        const double offset =
            static_cast<double>(std::max(si, di)) * pml.per_message_overhead;
        const sim::NetMessage& m = msgs[i];
        double t = offset + pml.per_message_overhead +
                   static_cast<double>(m.bytes) * pml.per_byte_overhead;
        t += static_cast<double>(m.path.size()) * link.hop_latency;
        if (m.bytes > 0 && !m.path.empty())
          t += static_cast<double>(m.bytes) / rate[i];
        time = std::max(time, t);
      }
      for (const mpi::RankMsg& rm : round) {
        src_count[static_cast<std::size_t>(rm.src_rank)] = 0;
        dst_count[static_cast<std::size_t>(rm.dst_rank)] = 0;
      }
      total += time;
    }
    return total;
  }

  [[nodiscard]] double level_percentile(double q) const {
    std::int64_t n = 0;
    for (const auto& [levels, count] : level_hist) n += count;
    if (n == 0) return 0.0;
    const auto rank = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n)));
    std::int64_t seen = 0;
    for (const auto& [levels, count] : level_hist) {
      seen += count;
      if (seen >= std::max<std::int64_t>(rank, 1)) return levels;
    }
    return level_hist.rbegin()->first;
  }

  double route_s = 0.0, solve_s = 0.0;
  std::int64_t route_calls = 0, walks = 0, solves = 0, flows_total = 0;
  std::unordered_map<std::vector<topo::ChannelId>, std::int32_t,
                     VecHash<topo::ChannelId>>
      paths;
  /// Distinct routed round -> filling levels of its solve.
  std::unordered_map<std::vector<std::int32_t>, std::int32_t,
                     VecHash<std::int32_t>>
      rounds;
  std::map<std::int32_t, std::int64_t> level_hist;  // levels -> solves

 private:
  const mpi::Cluster* cluster_ = nullptr;
  mpi::Placement placement_;
  std::optional<stats::Rng> rng_;
  std::optional<sim::FlowSim> flows_;
};

// --- packet workload ------------------------------------------------------

struct PktPass {
  std::array<double, 3> arm_s{};
  std::int64_t events = 0, packets = 0;
};

constexpr std::array<const char*, 3> kArmNames{"dfsssp", "dal", "ftree"};

/// run_pkt_sweep over the three arms x uniform/shift/hotspot x kPktSeeds.
/// The shift distance is drawn from the workload seed.
PktPass run_pkt_pass(const Fabrics& f, const sim::DalRouter& dal,
                     std::uint64_t seed, std::int32_t threads, Tally& tally) {
  const std::int32_t n = f.hx->topo().num_terminals();
  stats::Rng rng(derive(seed, {5}));
  workloads::PktPatternSpec uniform, shift, hotspot;
  uniform.pattern = workloads::PktPattern::kUniformRandom;
  uniform.messages = kPktMessages;
  shift.pattern = workloads::PktPattern::kShift;
  shift.shift = 1 + static_cast<std::int32_t>(
                        rng.next_below(static_cast<std::uint64_t>(n - 1)));
  hotspot.pattern = workloads::PktPattern::kHotspot;
  hotspot.messages = kPktMessages;
  for (auto* p : {&uniform, &shift, &hotspot}) p->bytes = kPktBytes;
  const std::array<workloads::PktPatternSpec, 3> patterns{uniform, shift,
                                                          hotspot};

  const std::array<workloads::PktRoutingArm, 3> arms{
      workloads::PktRoutingArm{kArmNames[0], &f.hx_dfsssp, &*f.hx_lids,
                               nullptr},
      workloads::PktRoutingArm{kArmNames[1], nullptr, nullptr, &dal},
      workloads::PktRoutingArm{kArmNames[2], &f.ft_ftree, &*f.ft_lids,
                               nullptr}};
  const std::array<const topo::Topology*, 3> topos{&f.hx->topo(),
                                                   &f.hx->topo(),
                                                   &f.ft->topo()};
  workloads::PktSweepOptions opts;
  opts.seeds = kPktSeeds;
  opts.threads = threads;

  PktPass pass;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const Clock::time_point t0 = Clock::now();
    std::vector<workloads::PktReplicationResult> reps;
    try {
      reps = workloads::run_pkt_sweep(*topos[a], std::span(&arms[a], 1),
                                      patterns, opts);
    } catch (const std::exception& ex) {
      // The whole arm failed: count each of its replications.
      std::fprintf(stderr, "hxbench: arm %s: %s\n", kArmNames[a], ex.what());
      const std::int64_t lost =
          static_cast<std::int64_t>(patterns.size()) * kPktSeeds;
      tally.attempted += lost;
      tally.failed += lost;
      tally.digest.add(std::nan(""));
    }
    pass.arm_s[a] = since(t0);
    for (const workloads::PktReplicationResult& r : reps) {
      ++tally.attempted;
      const bool ok = !r.deadlock && !r.truncated &&
                      r.packets_delivered == r.packets_total &&
                      std::isfinite(r.end_time) && r.end_time > 0.0;
      if (!ok) ++tally.failed;
      tally.digest.add(r.end_time);
      tally.digest.add(r.mean_completion);
      tally.digest.add(r.events_executed);
      tally.digest.add(r.packets_delivered);
      pass.events += r.events_executed;
      pass.packets += r.packets_delivered;
    }
  }
  return pass;
}

// --- command line and main ------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::int32_t passes = 3;
  std::int32_t setup_reps = 3;
  std::int32_t threads = 0;
  bool traced = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--passes") a.passes = std::stoi(value());
    else if (k == "--setup-reps") a.setup_reps = std::stoi(value());
    else if (k == "--threads") a.threads = std::stoi(value());
    else if (k == "--traced") a.traced = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "imb_sweep" && a.workload != "proxy_apps" &&
      a.workload != "pkt_sweep")
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (a.passes < 1 || a.setup_reps < 1 || a.threads < 0)
    throw std::invalid_argument(
        "--passes and --setup-reps must be >= 1, --threads >= 0");
  if (a.threads == 0) a.threads = affinity_threads();
  return a;
}

struct ReplayStats {
  double wall = 0.0, route_s = 0.0, solve_s = 0.0;
  std::int64_t route_calls = 0, solves = 0, attempted = 0;
  /// Replayed schedules that failed or whose time differs in any bit from
  /// the pass's.
  std::int64_t mismatches = 0;
  double flows_per_solve = 0.0, levels_p50 = 0.0, levels_p99 = 0.0;
  double distinct_round_frac = 0.0, distinct_path_frac = 0.0;
};

/// Replays an MPI workload on fresh clusters and compares every schedule's
/// time with `expected`, the Transport::execute times of a pass.
ReplayStats replay_mpi(const Args& args, const Fabrics& f,
                       const std::vector<double>& expected) {
  const Planes planes(f);
  ReplayLane runner;
  Tally tally;
  const Clock::time_point t0 = Clock::now();
  for (const MpiCell& cell : mpi_cells(args.workload, args.seed))
    tally.merge(run_cell(args.workload, cell, planes,
                         f.hx->topo().num_terminals(), runner));
  ReplayStats s;
  s.wall = since(t0);
  s.route_s = runner.route_s;
  s.solve_s = runner.solve_s;
  s.route_calls = runner.route_calls;
  s.solves = runner.solves;
  s.attempted = tally.attempted;
  s.mismatches = tally.failed;
  for (std::size_t i = 0; i < tally.values.size(); ++i)
    if (i >= expected.size() ||
        std::memcmp(&tally.values[i], &expected[i], sizeof(double)) != 0)
      ++s.mismatches;
  auto ratio = [](double a, std::int64_t b) {
    return b > 0 ? a / static_cast<double>(b) : 0.0;
  };
  s.flows_per_solve = ratio(static_cast<double>(runner.flows_total), s.solves);
  s.levels_p50 = runner.level_percentile(0.50);
  s.levels_p99 = runner.level_percentile(0.99);
  s.distinct_round_frac =
      ratio(static_cast<double>(runner.rounds.size()), s.solves);
  s.distinct_path_frac =
      ratio(static_cast<double>(runner.paths.size()), runner.walks);
  return s;
}

/// Minimal JSON object writer (numbers at full precision).
class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[40];
    if (std::isfinite(v)) std::snprintf(buf, sizeof(buf), "%.17g", v);
    else std::snprintf(buf, sizeof(buf), "null");
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    field(k, "\"" + v + "\"");
  }
  void arr(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
      s += (i ? "," : "") + std::string(buf);
    }
    field(k, s + "]");
  }
  void obj(const std::string& k, const Json& j) { field(k, j.text()); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
  }
  std::string body_;
};

struct PassResult {
  double wall = 0.0, cpu = 0.0;
  Tally tally;
  double execute_s = 0.0, cell_s_max = 0.0;  // MPI workloads
  PktPass pkt;                               // pkt_sweep
};

/// One pass of the body with every exec pool at `threads` workers.
PassResult run_pass(const Args& args, const Fabrics& f,
                    const sim::DalRouter& dal, std::int32_t threads) {
  exec::set_default_threads(threads);
  PassResult r;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  if (args.workload == "pkt_sweep") {
    r.pkt = run_pkt_pass(f, dal, args.seed, threads, r.tally);
  } else {
    // The cells are independent: fan them out over the pool, each worker
    // with its own clusters and transport, and merge results in cell order.
    const std::vector<MpiCell> cells = mpi_cells(args.workload, args.seed);
    std::vector<Tally> out(cells.size());
    std::vector<double> cell_s(cells.size());
    exec::ThreadPool pool(threads);
    std::vector<std::optional<Planes>> planes(
        static_cast<std::size_t>(pool.num_threads()));
    std::vector<TransportLane> lanes(planes.size());
    pool.parallel_for(
        static_cast<std::int64_t>(cells.size()),
        [&](std::int64_t i, std::int32_t worker) {
          const auto w = static_cast<std::size_t>(worker);
          if (!planes[w]) planes[w].emplace(f);
          const Clock::time_point c0 = Clock::now();
          out[static_cast<std::size_t>(i)] =
              run_cell(args.workload, cells[static_cast<std::size_t>(i)],
                       *planes[w], f.hx->topo().num_terminals(), lanes[w]);
          cell_s[static_cast<std::size_t>(i)] = since(c0);
        });
    for (const Tally& t : out) r.tally.merge(t);
    for (const TransportLane& lane : lanes) r.execute_s += lane.execute_s;
    r.cell_s_max = *std::max_element(cell_s.begin(), cell_s.end());
  }
  r.wall = since(t0);
  r.cpu = cpu_seconds() - cpu0;
  exec::set_default_threads(args.threads);
  return r;
}

int run(const Args& args) {
  const std::string build_type = HXBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "hxbench: refusing a %s build; configure Release\n",
                 build_type.c_str());
    return 2;
  }
  exec::set_default_threads(args.threads);
  const double probe_start = host_probe_s();
  const bool mpi = args.workload != "pkt_sweep";

  // Set-up: build the fabrics and routings at least setup_reps times, and
  // more (up to kMaxSetupReps) while that took under kSetupBudgetS; report
  // the median and keep the last build.
  std::vector<SetupTimes> setups;
  std::optional<Fabrics> fabrics;
  double setup_total = 0.0;
  while (static_cast<std::int32_t>(setups.size()) < args.setup_reps ||
         (setup_total < kSetupBudgetS && setups.size() < kMaxSetupReps)) {
    fabrics.reset();
    SetupTimes t;
    fabrics.emplace(build_fabrics(mpi, t));
    setups.push_back(t);
    setup_total += t.total;
  }
  const Fabrics& f = *fabrics;
  const sim::DalRouter dal(*f.hx);

  // Measured body: whole passes until the time is used.
  std::vector<PassResult> passes;
  const Clock::time_point body0 = Clock::now();
  const std::int32_t min_passes = args.traced ? 1 : args.passes;
  while (static_cast<std::int32_t>(passes.size()) < min_passes ||
         (!args.traced && since(body0) < args.seconds))
    passes.push_back(run_pass(args, f, dal, args.threads));

  std::int64_t failed = 0, attempted = 0;
  const std::string digest = passes.front().tally.digest.hex();
  std::int32_t digest_mismatches = 0;
  // A pass that does not reproduce the first pass's digest fails whole.
  for (const PassResult& p : passes) {
    attempted += p.tally.attempted;
    failed += p.tally.failed;
    if (p.tally.digest.hex() != digest) {
      ++digest_mismatches;
      failed += p.tally.attempted - p.tally.failed;
    }
  }

  std::vector<double> pass_s, pass_cpu_s, setup_s;
  for (const PassResult& p : passes) {
    pass_s.push_back(p.wall);
    pass_cpu_s.push_back(p.cpu);
  }
  for (const SetupTimes& t : setups) setup_s.push_back(t.total);
  const double run_s = median(pass_s);
  const PassResult& first = passes.front();
  // Simulated work per pass: routed MPI rounds, or packet-engine events.
  const auto ops = static_cast<double>(mpi ? first.tally.rounds
                                           : first.pkt.events);

  Json out;
  out.str("workload", args.workload);
  out.num("seed", static_cast<double>(args.seed));
  out.str("digest", digest);
  out.str("fabric_digest", fabric_digest(f));
  out.num("setup_s", median(setup_s));
  out.arr("setup_samples", setup_s);
  out.num("run_s", run_s);
  out.arr("pass_samples", pass_s);
  out.arr("pass_cpu_samples", pass_cpu_s);
  out.num("ops", ops);
  out.num("ops_per_s", ops / run_s);

  if (args.traced) {
    Json layers;
    auto med = [&](double SetupTimes::*m) {
      std::vector<double> v;
      for (const SetupTimes& t : setups) v.push_back(t.*m);
      return median(v);
    };
    layers.num("topo.build_s", med(&SetupTimes::topo));
    layers.num("routing.ftree_s", med(&SetupTimes::ftree));
    layers.num("routing.sssp_s", med(&SetupTimes::sssp));
    layers.num("routing.dfsssp_s", med(&SetupTimes::dfsssp));
    layers.num("routing.parx_s", med(&SetupTimes::parx));

    layers.num("mpi.execute_s", first.execute_s);
    layers.num("mpi.schedules",
               mpi ? static_cast<double>(first.tally.attempted) : 0.0);
    layers.num("mpi.rounds", static_cast<double>(first.tally.rounds));
    layers.num("mpi.messages", static_cast<double>(first.tally.messages));
    layers.num("mpi.cell_s_max", first.cell_s_max);
    layers.num("mpi.rounds_per_s",
               static_cast<double>(first.tally.rounds) / first.wall);

    // 1-thread pass: the same body with every pool at one worker.
    const PassResult serial = run_pass(args, f, dal, 1);
    attempted += serial.tally.attempted;
    failed += serial.tally.failed;
    if (serial.tally.digest.hex() != digest) {
      ++digest_mismatches;
      failed += serial.tally.attempted - serial.tally.failed;
    }

    const ReplayStats replay =
        mpi ? replay_mpi(args, f, first.tally.values) : ReplayStats{};
    attempted += replay.attempted;
    failed += replay.mismatches;
    if (replay.mismatches > 0) ++digest_mismatches;
    layers.num("trace.replay_s", replay.wall);
    layers.num("mpi.route_s", replay.route_s);
    layers.num("mpi.route_calls", static_cast<double>(replay.route_calls));
    layers.num("flowsim.solve_s", replay.solve_s);
    layers.num("flowsim.solves", static_cast<double>(replay.solves));
    layers.num("flowsim.flows_per_solve", replay.flows_per_solve);
    layers.num("flowsim.levels_p50", replay.levels_p50);
    layers.num("flowsim.levels_p99", replay.levels_p99);
    layers.num("mpi.self_s",
               mpi ? first.execute_s - replay.route_s - replay.solve_s : 0.0);
    layers.num("mpi.distinct_round_frac", replay.distinct_round_frac);
    layers.num("routing.distinct_path_frac", replay.distinct_path_frac);

    const std::int64_t events = first.pkt.events;
    layers.num("pktsim.events", static_cast<double>(events));
    layers.num("pktsim.packets", static_cast<double>(first.pkt.packets));
    layers.num("pktsim.ns_per_event",
               events > 0 ? 1e9 * first.wall / static_cast<double>(events) : 0.0);
    layers.num("pktsim.events_per_s",
               static_cast<double>(events) / first.wall);
    for (std::size_t a = 0; a < kArmNames.size(); ++a)
      layers.num(std::string("pktsim.arm_s.") + kArmNames[a],
                 first.pkt.arm_s[a]);

    layers.num("exec.threads", args.threads);
    layers.num("exec.cpu_util",
               first.cpu / (first.wall * static_cast<double>(args.threads)));
    layers.num("exec.speedup", serial.wall / first.wall);
    out.obj("layers", layers);
  }

  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("digest_mismatches", digest_mismatches);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("threads", args.threads);
  out.num("hardware_threads", exec::hardware_threads());
  out.str("compiler", std::string(HXBENCH_CXX_ID) + " " + HXBENCH_CXX_VERSION);
  out.str("build_type", build_type);
  out.num("probe_start_s", probe_start);
  out.num("probe_end_s", host_probe_s());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "hxbench: %s\n", ex.what());
    return 2;
  }
}
