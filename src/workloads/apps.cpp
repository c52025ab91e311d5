#include "workloads/apps.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mpi/collectives.hpp"
#include "stats/units.hpp"

namespace hxsim::workloads {

namespace col = mpi::collectives;
using stats::kKiB;
using stats::kMiB;

const char* to_string(AppId id) {
  switch (id) {
    case AppId::kAmg:
      return "AMG";
    case AppId::kComd:
      return "CoMD";
    case AppId::kMinife:
      return "MiFE";
    case AppId::kSwfft:
      return "FFT";
    case AppId::kFfvc:
      return "FFVC";
    case AppId::kMvmc:
      return "mVMC";
    case AppId::kNtchem:
      return "NTCh";
    case AppId::kMilc:
      return "MILC";
    case AppId::kQbox:
      return "Qbox";
    case AppId::kHpl:
      return "HPL";
    case AppId::kHpcg:
      return "HPCG";
    case AppId::kGraph500:
      return "GraD";
    case AppId::kMultiPingPong:
      return "MuPP";
    case AppId::kEmDl:
      return "EmDL";
  }
  return "?";
}

std::vector<AppId> proxy_apps() {
  return {AppId::kAmg,  AppId::kComd,   AppId::kFfvc,
          AppId::kMilc, AppId::kMinife, AppId::kMvmc,
          AppId::kNtchem, AppId::kQbox, AppId::kSwfft};
}

std::vector<AppId> x500_apps() {
  return {AppId::kHpl, AppId::kHpcg, AppId::kGraph500};
}

std::vector<AppId> capacity_apps() {
  return {AppId::kAmg,    AppId::kComd,     AppId::kFfvc,  AppId::kGraph500,
          AppId::kHpcg,   AppId::kHpl,      AppId::kMilc,  AppId::kMinife,
          AppId::kMvmc,   AppId::kNtchem,   AppId::kQbox,  AppId::kSwfft,
          AppId::kMultiPingPong, AppId::kEmDl};
}

// --- grid helpers -----------------------------------------------------------

namespace {

std::vector<std::int32_t> balanced_factors(std::int32_t n,
                                           std::int32_t parts) {
  // Greedy: repeatedly peel off the divisor closest to the ideal root.
  std::vector<std::int32_t> dims;
  std::int32_t rest = n;
  for (std::int32_t p = parts; p > 1; --p) {
    const auto ideal = static_cast<std::int32_t>(std::round(
        std::pow(static_cast<double>(rest), 1.0 / static_cast<double>(p))));
    std::int32_t best = 1;
    for (std::int32_t d = 1;
         d <= ideal || best == 1; ++d) {
      if (d > rest) break;
      if (rest % d == 0) best = d;
    }
    dims.push_back(best);
    rest /= best;
  }
  dims.push_back(rest);
  std::sort(dims.begin(), dims.end());
  return dims;
}

/// Periodic halo on an arbitrary-rank grid: for each dimension and
/// direction one round of neighbour messages.
mpi::Schedule halo_grid(std::span<const std::int32_t> dims,
                        std::int64_t face_bytes) {
  std::int32_t n = 1;
  for (std::int32_t d : dims) n *= d;
  mpi::Schedule s;
  std::vector<std::int32_t> stride(dims.size(), 1);
  for (std::size_t d = 1; d < dims.size(); ++d)
    stride[d] = stride[d - 1] * dims[d - 1];

  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (dims[d] == 1) continue;  // degenerate dimension: neighbour is self
    for (const std::int32_t dir : {+1, -1}) {
      mpi::Round round;
      round.reserve(static_cast<std::size_t>(n));
      for (std::int32_t r = 0; r < n; ++r) {
        const std::int32_t coord = (r / stride[d]) % dims[d];
        const std::int32_t next = (coord + dir + dims[d]) % dims[d];
        const std::int32_t peer = r + (next - coord) * stride[d];
        round.push_back(mpi::RankMsg{r, peer, face_bytes});
      }
      s.push_back(std::move(round));
    }
  }
  return s;
}

}  // namespace

std::array<std::int32_t, 3> dims3(std::int32_t n) {
  const auto f = balanced_factors(n, 3);
  return {f[0], f[1], f[2]};
}

std::array<std::int32_t, 2> dims2(std::int32_t n) {
  const auto f = balanced_factors(n, 2);
  return {f[0], f[1]};
}

mpi::Schedule halo3d(std::int32_t nranks, std::int64_t face_bytes) {
  const auto d = dims3(nranks);
  return halo_grid(d, face_bytes);
}

mpi::Schedule halo4d(std::int32_t nranks, std::int64_t face_bytes) {
  const auto f = balanced_factors(nranks, 4);
  return halo_grid(f, face_bytes);
}

mpi::Schedule grouped_alltoall(std::int32_t nranks, std::int32_t group,
                               std::int64_t bytes_per_pair) {
  if (group < 1 || nranks % group != 0)
    throw std::invalid_argument("grouped_alltoall: group must divide n");
  mpi::Schedule s;
  for (std::int32_t r = 1; r < group; ++r) {
    mpi::Round round;
    round.reserve(static_cast<std::size_t>(nranks));
    for (std::int32_t i = 0; i < nranks; ++i) {
      const std::int32_t base = (i / group) * group;
      const std::int32_t local = i - base;
      round.push_back(mpi::RankMsg{i, base + (local + r) % group,
                                   bytes_per_pair});
    }
    s.push_back(std::move(round));
  }
  return s;
}

void append_schedule(mpi::Schedule& head, const mpi::Schedule& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
}

// --- application skeletons --------------------------------------------------

namespace {

/// AMG: hypre problem 1, 256^3 cube, 27-point stencil.  One V-cycle per
/// iteration: halo exchanges shrink by 4x per level, one 8-byte Allreduce
/// (convergence check) per level.
AppWorkload make_amg(std::int32_t n) {
  AppWorkload app;
  app.name = "AMG";
  constexpr std::int32_t kLevels = 6;
  std::int64_t face = 256LL * 256 * 8;  // finest-level face
  for (std::int32_t level = 0; level < kLevels; ++level) {
    append_schedule(app.iteration_comm, halo3d(n, face));
    append_schedule(app.iteration_comm,
                    col::allreduce_recursive_doubling(n, 8));
    face = std::max<std::int64_t>(face / 4, 64);
  }
  app.compute_per_iteration = 24.0;
  app.iterations = 25;  // ~600 s kernel
  return app;
}

/// CoMD: 64^3 atoms per process, Sendrecv halos in 3 dimensions plus a
/// small Allreduce (energy) and Bcast per step.
AppWorkload make_comd(std::int32_t n) {
  AppWorkload app;
  app.name = "CoMD";
  const std::int64_t face = 64LL * 64 * 64;  // boundary atoms x ~16 B
  app.iteration_comm = halo3d(n, face);
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  append_schedule(app.iteration_comm, col::bcast_binomial(n, 8));
  app.compute_per_iteration = 4.0;
  app.iterations = 100;  // ~400 s kernel
  return app;
}

/// MiniFE: 100^3-per-process implicit FE; each CG iteration is one SpMV
/// halo plus two dot-product Allreduces.
AppWorkload make_minife(std::int32_t n) {
  AppWorkload app;
  app.name = "MiFE";
  const std::int64_t face = 100LL * 100 * 8;
  app.iteration_comm = halo3d(n, face);
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  app.compute_per_iteration = 1.5;
  app.iterations = 200;  // ~300 s kernel
  return app;
}

/// SWFFT: 3-D FFT with pencil decomposition; each repetition performs three
/// transposes = sub-communicator all-to-alls over the 2-D process grid.
/// Weak-scaled ~128^3 x 8 B per process.
AppWorkload make_swfft(std::int32_t n) {
  AppWorkload app;
  app.name = "FFT";
  app.power_of_two_scaling = true;
  const auto [a, b] = dims2(n);
  // HACC-scale pencils: 256^3 x 8 B per process moves (nearly) the whole
  // local volume through every transpose, which is what makes SWFFT the
  // paper's most network-bound proxy at scale.
  const std::int64_t local_bytes = 256LL * 256 * 256 * 8;
  if (a > 1)
    append_schedule(app.iteration_comm,
                    grouped_alltoall(n, a, local_bytes / a));
  if (b > 1)
    append_schedule(app.iteration_comm,
                    grouped_alltoall(n, b, local_bytes / b));
  if (a > 1)
    append_schedule(app.iteration_comm,
                    grouped_alltoall(n, a, local_bytes / a));
  app.compute_per_iteration = 2.2;
  app.iterations = 16;  // 16 repetitions (paper input)
  return app;
}

/// FFVC: incompressible Navier-Stokes, 128^3 cuboid (reduced to 64^3 above
/// 64 nodes to fit the walltime limit -- the paper's weak* adjustment).
AppWorkload make_ffvc(std::int32_t n) {
  AppWorkload app;
  app.name = "FFVC";
  app.power_of_two_scaling = true;
  const bool reduced = n > 64;
  const std::int64_t edge = reduced ? 64 : 128;
  const std::int64_t face = edge * edge * 8;
  app.iteration_comm = halo3d(n, face);
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  append_schedule(app.iteration_comm, col::reduce_binomial(n, 8));
  append_schedule(app.iteration_comm, col::gather_binomial(n, 64));
  app.compute_per_iteration = reduced ? 1.4 : 11.0;
  app.iterations = 60;  // ~660 s full / ~85 s reduced
  return app;
}

/// mVMC: variational Monte Carlo (job_middle).  Parameter optimisation is
/// Allreduce-heavy with periodic Scatter/Bcast of configurations.
AppWorkload make_mvmc(std::int32_t n) {
  AppWorkload app;
  app.name = "mVMC";
  for (std::int32_t i = 0; i < 4; ++i)
    append_schedule(app.iteration_comm,
                    col::allreduce_ring(n, 2 * kMiB));
  append_schedule(app.iteration_comm, col::scatter_binomial(n, 64 * kKiB));
  append_schedule(app.iteration_comm, col::bcast_binomial(n, 8 * kKiB));
  app.compute_per_iteration = 13.0;
  app.iterations = 50;  // ~650 s kernel
  return app;
}

/// NTChem (taxol, strong scaling): MP2 energy; total work fixed, per-rank
/// data shrinks as 1/n.  Alltoall of integral blocks plus Allreduces.
AppWorkload make_ntchem(std::int32_t n) {
  AppWorkload app;
  app.name = "NTCh";
  const std::int64_t total = 2LL * 1024 * kMiB;  // integral volume
  const std::int64_t per_pair =
      std::max<std::int64_t>(total / (static_cast<std::int64_t>(n) * n), 64);
  app.iteration_comm = col::alltoall_pairwise(n, per_pair);
  append_schedule(app.iteration_comm, col::allreduce_ring(n, kMiB));
  append_schedule(app.iteration_comm, col::bcast_binomial(n, kMiB));
  app.compute_per_iteration = 700.0 / static_cast<double>(n) / 10.0 * 7.0;
  app.iterations = 10;  // strong: ~490 s at 7 nodes, seconds at 672
  return app;
}

/// MILC: SU(3) lattice QCD on a 4-D grid (benchmark_n8 weak-scaled):
/// 8 halo directions plus frequent small CG Allreduces.
AppWorkload make_milc(std::int32_t n) {
  AppWorkload app;
  app.name = "MILC";
  app.power_of_two_scaling = true;
  const std::int64_t face = 8LL * 8 * 8 * 72;  // 8^3 sites x SU(3) matrices
  app.iteration_comm = halo4d(n, face);
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  app.compute_per_iteration = 2.8;
  app.iterations = 150;  // ~420 s kernel
  return app;
}

/// qb@ll (gold, weak*): DFT first-principles MD; row/column transposes of
/// the process grid plus heavy Bcast/Allreduce.  672-node runs use the
/// halved (16-atom) input.
AppWorkload make_qbox(std::int32_t n) {
  AppWorkload app;
  app.name = "Qbox";
  const bool reduced = n >= 672;
  const std::int64_t scale = reduced ? 2 : 1;
  const auto [a, b] = dims2(n);
  // Plane-wave DFT transposes the (GB-scale) wavefunction array across the
  // process grid several times per SCF step -- qb@ll is the proxy where
  // the paper's HyperX loses most at scale (Fig. 6h: -0.44..-0.85).
  const std::int64_t local_bytes = 384LL * kMiB / scale;
  for (std::int32_t pass = 0; pass < 4; ++pass) {
    if (a > 1)
      append_schedule(app.iteration_comm,
                      grouped_alltoall(n, a, local_bytes / (4 * a)));
    if (b > 1)
      append_schedule(app.iteration_comm,
                      grouped_alltoall(n, b, local_bytes / (4 * b)));
  }
  append_schedule(app.iteration_comm,
                  col::allreduce_ring(n, 4 * kMiB / scale));
  append_schedule(app.iteration_comm,
                  col::bcast_binomial(n, 2 * kMiB / scale));
  app.compute_per_iteration = reduced ? 6.0 : 12.0;
  app.iterations = 25;  // ~300 s of compute before comm
  return app;
}

/// HPL (weak*): ~1 GiB of matrix per process (0.25 GiB from 224 nodes on).
/// Each panel step broadcasts the panel along the process row and swaps
/// rows along the column.
AppWorkload make_hpl(std::int32_t n) {
  AppWorkload app;
  app.name = "HPL";
  const bool reduced = n >= 224;
  const double mem_per_rank =
      (reduced ? 0.25 : 1.0) * static_cast<double>(stats::kGiB);
  const double n_local = std::sqrt(mem_per_rank / 8.0);
  const double n_global = n_local * std::sqrt(static_cast<double>(n));
  app.total_flops = (2.0 / 3.0) * n_global * n_global * n_global;

  const auto [p, q] = dims2(n);
  constexpr std::int32_t kSteps = 32;  // coarse panel steps
  // Panel broadcast + row swaps + U forwarding move roughly an order of
  // magnitude more than the bare panel per step.
  const auto panel_bytes =
      static_cast<std::int64_t>(n_global / kSteps * 128.0 * 8.0 * 16.0);
  mpi::Schedule step;
  // Panel bcast along rows (communicators of size q) as a grouped ring,
  // row swaps along columns as a grouped exchange.
  if (q > 1) step = grouped_alltoall(n, q, panel_bytes / q);
  if (p > 1) append_schedule(step, grouped_alltoall(n, p, panel_bytes / p));
  app.iteration_comm = std::move(step);
  app.iterations = kSteps;
  // Effective ~18 Gflop/s per node on the solver (Westmere, CPU-only).
  app.compute_per_iteration =
      app.total_flops / (18e9 * static_cast<double>(n)) /
      static_cast<double>(kSteps);
  return app;
}

/// HPCG: 192^3 local domain; halo + two dot-product Allreduces per CG
/// iteration, occasional small Alltoall (multigrid setup).
AppWorkload make_hpcg(std::int32_t n) {
  AppWorkload app;
  app.name = "HPCG";
  const std::int64_t face = 192LL * 192 * 8;
  app.iteration_comm = halo3d(n, face);
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  append_schedule(app.iteration_comm, col::allreduce_recursive_doubling(n, 8));
  app.compute_per_iteration = 6.0;
  app.iterations = 50;
  // ~3 Gflop/s per node sustained (memory bound).
  app.total_flops = 3e9 * static_cast<double>(n) *
                    app.compute_per_iteration *
                    static_cast<double>(app.iterations);
  return app;
}

/// Graph500: 16 BFS iterations on ~1 GiB of graph per process; each BFS
/// level is a frontier alltoall plus an Allreduce termination check.
AppWorkload make_graph500(std::int32_t n) {
  AppWorkload app;
  app.name = "GraD";
  app.power_of_two_scaling = true;
  constexpr std::int32_t kLevels = 8;
  const std::int64_t frontier_bytes = 64LL * kMiB / kLevels;
  const std::int64_t per_pair =
      std::max<std::int64_t>(frontier_bytes / n, 16);
  for (std::int32_t level = 0; level < kLevels; ++level) {
    append_schedule(app.iteration_comm, col::alltoall_pairwise(n, per_pair));
    append_schedule(app.iteration_comm,
                    col::allreduce_recursive_doubling(n, 8));
  }
  app.compute_per_iteration = 1.2;
  app.iterations = 16;  // 16 BFS roots
  // ~2^26 edges traversed per process and BFS.
  app.total_edges = static_cast<double>(n) * 67108864.0 * 16.0;
  return app;
}

/// IMB Multi-PingPong (capacity mix): dense pairwise ping-pong across the
/// allocation halves.
AppWorkload make_mupp(std::int32_t n) {
  AppWorkload app;
  app.name = "MuPP";
  // One iteration = one message-size block of the IMB sweep; the large
  // sizes dominate the volume (~8 GB per pair per full run).
  app.iteration_comm = col::multi_pingpong(n, 2 * kMiB, 85);
  app.compute_per_iteration = 0.0;
  app.iterations = 23;
  return app;
}

/// EmDL: IMB Allreduce alternating with a 0.1 s compute phase (usleep) to
/// mimic deep-learning training (paper footnote 12).
AppWorkload make_emdl(std::int32_t n) {
  AppWorkload app;
  app.name = "EmDL";
  app.iteration_comm = col::allreduce_ring(n, 64 * kMiB);
  app.compute_per_iteration = 0.1;
  app.iterations = 900;  // ~3 min per run, as in the paper's mix
  return app;
}

}  // namespace

AppWorkload make_app(AppId id, std::int32_t nranks) {
  if (nranks < 1) throw std::invalid_argument("make_app: nranks must be >= 1");
  switch (id) {
    case AppId::kAmg:
      return make_amg(nranks);
    case AppId::kComd:
      return make_comd(nranks);
    case AppId::kMinife:
      return make_minife(nranks);
    case AppId::kSwfft:
      return make_swfft(nranks);
    case AppId::kFfvc:
      return make_ffvc(nranks);
    case AppId::kMvmc:
      return make_mvmc(nranks);
    case AppId::kNtchem:
      return make_ntchem(nranks);
    case AppId::kMilc:
      return make_milc(nranks);
    case AppId::kQbox:
      return make_qbox(nranks);
    case AppId::kHpl:
      return make_hpl(nranks);
    case AppId::kHpcg:
      return make_hpcg(nranks);
    case AppId::kGraph500:
      return make_graph500(nranks);
    case AppId::kMultiPingPong:
      return make_mupp(nranks);
    case AppId::kEmDl:
      return make_emdl(nranks);
  }
  throw std::invalid_argument("make_app: bad id");
}

double run_workload(const AppWorkload& app, mpi::Transport& transport) {
  // The schedule repeats identically each iteration; simulate one and
  // scale (placement and routing are fixed within a run).
  const double comm = app.iteration_comm.empty()
                          ? 0.0
                          : transport.execute(app.iteration_comm);
  return static_cast<double>(app.iterations) *
         (app.compute_per_iteration + comm);
}

}  // namespace hxsim::workloads
