// The benchmark's four workloads. Each owns a fixed work list made by the
// generator from the seed, runs it pass by pass through the library's public
// functions, checks every output, and folds every simulated output into a
// per-pass timeline digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reduction/reduce.hpp"
#include "trace.hpp"
#include "vgpu/machine.hpp"

namespace perfbench {

/// 64-bit FNV-1a over a tagged byte stream; doubles hash by bit pattern.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);
  void str(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

/// What one pass of a workload produced.
struct PassOutput {
  std::uint64_t digest = 0;
  std::int64_t ops = 0;
  std::int64_t failed = 0;     // threw, refused, or returned a wrong value
  double virtual_ms = 0;       // simulated time of the pass's outputs
  double dram_bytes = 0;       // simulated DRAM traffic of benchmark-built machines
  std::vector<double> op_ms;   // wall latency of each op, in op order
};

/// Per-layer values a workload reports, by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Quantile of the per-op floors reported as the tail latency: p99 of a
  /// 2000-op pass, p95 of a 240-op pass (at least ten ops beyond either),
  /// p90 of a pass of ten or fewer ops.
  virtual double tail_q() const = 0;
  /// Wall seconds one pass took on the reference host (4 CPUs). A run of
  /// S seconds times round(S / nominal_pass_s()) passes: a fixed amount of
  /// work per run length, whatever the speed of the build under test.
  virtual double nominal_pass_s() const = 0;
  /// Ops in flight at once: the workload is a closed loop of this many
  /// callers, each sending its next op when the previous one returns.
  virtual int callers() const { return 1; }
  /// The machine the run record resolves executor, queue and shard jobs on.
  virtual vgpu::MachineConfig record_config() const = 0;

  /// Input generation, daemon start and warm-up. Called several times per
  /// run, with teardown() in between, so set-up time is a median.
  virtual void setup(std::uint64_t seed) = 0;
  virtual void teardown() {}

  /// One pass over the work list. Pass numbers start at 0 and increase.
  virtual PassOutput run_pass(int pass) = 0;

  /// Checks that need reference answers computed outside the timed phase.
  /// Returns the number of wrong outputs found and writes diagnostics.
  virtual std::int64_t verify_after() { return 0; }

  /// Start and stop collecting the per-layer counters the spans cannot give.
  virtual void begin_layer_phase() {}
  /// Extra traced calls run after the traced phase (not part of its wall
  /// time), then the per-layer values of the traced phase. `phase_ops` and
  /// `machines_built` cover the traced phase only.
  virtual LayerValues layer_values(const Trace& trace, std::int64_t phase_ops,
                                   std::uint64_t machines_built) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Environment a workload runs under (set after the VGPU_/SYNCBENCH_/GSB_/
/// SIMD_ variables are cleared).
std::vector<std::pair<std::string, std::string>> workload_env(const std::string& name);

/// GB/s of one reduce_8gpu multi-GPU op (fresh System, fill_pattern,
/// reduce_multi): what fig16_multi_gpu_reduction prints for that GPU count.
double multi_reduce_gbs(reduction::MultiGpuAlgo algo, int gpus, std::int64_t n);

}  // namespace perfbench
