// Seeded input generator: the only place a workload seed becomes inputs.
//
// Every workload's work list is a pure function of (workload, seed). The
// *composition* of a list (which points, how many reduction and all-reduce
// calls of each kind) is fixed; the seed draws the order and sizes within
// narrow ranges, so two seeds give lists of the same cost shape and the
// run-to-run spread of a metric measures the host, not the draw.
#pragma once

#include <cstdint>
#include <vector>

#include "allreduce/allreduce.hpp"
#include "reduction/reduce.hpp"
#include "simd/point.hpp"

namespace perfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  int uniform(int lo, int hi);

 private:
  std::uint64_t s_;
};

/// One characterization pass: `per_cell` points (a multiple of 24) for each
/// of the ten (method, arch) cells — the paper's five sync methods on V100
/// and P100, multi-device methods at 1..8 GPUs (V100) or 1..2 (P100) —
/// shuffled. Within a cell every parameter takes each of its values equally
/// often. The points and the sequence of machine shapes (arch, device
/// count) are the same for every seed; the seed deals each shape's points
/// over that shape's positions. Every query passes simd::validate. Noise is
/// 0, so the `seed` field never moves the timeline; it only makes each
/// query's fingerprint distinct.
std::vector<simd::PointQuery> point_mix(std::uint64_t seed, int per_cell);
constexpr int kSweepPerCell = 24;

/// The simd_replay request stream: `n` requests of which exactly a
/// `revisit_share` repeat an earlier valid request of the stream and exactly
/// an `invalid_share` are fresh points made to fail simd::validate. Fresh
/// points come from point_mix.
std::vector<simd::PointQuery> replay_stream(std::uint64_t seed, int n,
                                            double revisit_share,
                                            double invalid_share);
constexpr int kReplayRequests = 2000;
constexpr double kReplayRevisitShare = 0.7;
constexpr double kReplayInvalidShare = 0.05;

/// One reduce_8gpu op: a single-GPU reduction on one V100, or a multi-GPU
/// reduction of `n` doubles per GPU on a DGX-1 with `gpus` GPUs.
struct ReduceOp {
  bool multi = false;
  reduction::SingleGpuAlgo single = reduction::SingleGpuAlgo::Implicit;
  reduction::MultiGpuAlgo algo = reduction::MultiGpuAlgo::MGridSync;
  int gpus = 1;
  std::int64_t n = 0;
};

/// Shard size of the 8-GPU ops, in MB per GPU: the same as
/// `GSB_FIG16_MB=1 fig16_multi_gpu_reduction`, which the benchmark's tests
/// cross-check against.
constexpr int kReduceMultiMb = 1;

/// The four single-GPU algorithms near 256 KB, Implicit and GridSync near
/// 1 MB, then MGridSync and CpuBarrier at 8 GPUs and at 2 GPUs, in seeded
/// order with seeded sizes a few percent above those (the 8-GPU shards are
/// always kReduceMultiMb).
std::vector<ReduceOp> reduce_plan(std::uint64_t seed);

/// One allreduce_sharded op: an 8-GPU all-reduce of `n` F64 per device.
struct AllReduceOp {
  allreduce::Schedule schedule = allreduce::Schedule::Ring;
  std::int64_t n = 0;
};

/// Two passes of each schedule (ring, tree, host-staged) at seeded sizes
/// within 3% of 256 KB per device, in seeded order.
std::vector<AllReduceOp> allreduce_plan(std::uint64_t seed);

}  // namespace perfbench
