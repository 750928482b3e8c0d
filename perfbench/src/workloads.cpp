#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "allreduce/allreduce.hpp"
#include "generator.hpp"
#include "reduction/reduce.hpp"
#include "scuda/system.hpp"
#include "simd/client.hpp"
#include "simd/point.hpp"
#include "simd/protocol.hpp"
#include "simd/server.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

using simd::Method;
using simd::PointQuery;
using simd::PointResult;

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const char* method_span(Method m) {
  switch (m) {
    case Method::Launch: return "syncbench.launch";
    case Method::WarpSync: return "syncbench.warp_sync";
    case Method::BlockSync: return "syncbench.block_sync";
    case Method::GridSync: return "syncbench.grid_sync";
    case Method::MGridSync: return "syncbench.mgrid_sync";
  }
  return "syncbench.unknown";
}

const Method kAllMethods[] = {Method::Launch, Method::WarpSync, Method::BlockSync,
                              Method::GridSync, Method::MGridSync};

/// Simulated milliseconds a point result reports (cycle results at the
/// arch's core clock).
double point_virtual_ms(const std::string& arch, double value, const std::string& unit) {
  if (unit == "us") return value / 1e3;
  return value / (vgpu::arch_by_name(arch)->core_mhz * 1e3);
}

/// The unit each method's result must carry.
const char* expected_unit(Method m) {
  return m == Method::WarpSync || m == Method::BlockSync ? "cycles" : "us";
}

/// Simulated time and DRAM traffic of a benchmark-built system.
void add_machine_totals(scuda::System& sys, PassOutput* out, Digest* d) {
  const double vms = vgpu::to_us(sys.machine().queue().now()) / 1e3;
  double dram = 0;
  for (int g = 0; g < sys.num_devices(); ++g)
    dram += static_cast<double>(sys.machine().device(g).dram_bytes());
  out->virtual_ms += vms;
  out->dram_bytes += dram;
  d->f64(vms);
  d->f64(dram);
}

double span_mean(const Trace& t, const char* name) { return t.totals(name).mean_ms(); }

/// Mean time of one cold scuda::System build (outside any machine pool) over
/// the machine shapes the valid queries use. run_point builds its System
/// internally, so the point workloads time the build layer this way.
double cold_build_ms(const Trace& t, const std::vector<PointQuery>& queries) {
  std::set<std::pair<std::string, int>> shapes;
  for (const PointQuery& q : queries) {
    if (!simd::validate(q).empty()) continue;
    const vgpu::MachineConfig cfg = simd::machine_config_for(q);
    if (!shapes.insert({cfg.arch.name, cfg.num_devices}).second) continue;
    Span s("vgpu.machine_build");
    scuda::System sys(cfg);
  }
  return span_mean(t, "vgpu.machine_build");
}

// ---------------------------------------------------------------------------
// sweep_points: the characterization-sweep user.
class SweepPoints : public Workload {
 public:
  // Points per warm-machine batch inside sweep::map_batched.
  static constexpr int kBatch = 16;

  double tail_q() const override { return 0.95; }
  double nominal_pass_s() const override { return 0.12; }
  vgpu::MachineConfig record_config() const override {
    return vgpu::MachineConfig::single(vgpu::v100());
  }

  void setup(std::uint64_t seed) override {
    points_ = point_mix(seed, kSweepPerCell);
    // Warm-up: the pass once, untimed.
    sweep::map_batched(points_, [](const PointQuery& q) { return simd::run_point(q); },
                       1, kBatch);
  }

  PassOutput run_pass(int pass) override {
    struct Cell {
      PointResult r;
      double ms = 0;
      bool threw = false;
    };
    const std::int64_t base = static_cast<std::int64_t>(pass) *
                              static_cast<std::int64_t>(points_.size());
    std::vector<std::size_t> idx(points_.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::vector<Cell> cells;
    {
      Span s("sweep.map_batched", base);
      cells = sweep::map_batched(
          idx,
          [&](std::size_t i) {
            const PointQuery& q = points_[i];
            Cell c;
            const auto t0 = Clock::now();
            try {
              Span sp(method_span(q.method), base + static_cast<std::int64_t>(i));
              c.r = simd::run_point(q);
            } catch (const std::exception& e) {
              c.threw = true;
              std::cerr << "point " << i << " threw: " << e.what() << "\n";
            }
            c.ms = ms_since(t0);
            return c;
          },
          1, kBatch);
    }
    PassOutput out;
    Digest d;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const PointQuery& q = points_[i];
      ++out.ops;
      out.op_ms.push_back(c.ms);
      const bool ok = !c.threw && std::isfinite(c.r.value) &&
                      std::isfinite(c.r.value2) && c.r.unit == expected_unit(q.method);
      if (!ok) {
        ++out.failed;
        continue;
      }
      d.u64(i);
      d.f64(c.r.value);
      d.f64(c.r.value2);
      d.str(c.r.unit);
      out.virtual_ms += point_virtual_ms(q.arch, c.r.value, c.r.unit);
    }
    out.digest = d.value();
    return out;
  }

  LayerValues layer_values(const Trace& t, std::int64_t phase_ops,
                           std::uint64_t machines_built) override {
    LayerValues v;
    double point_ms = 0;
    for (Method m : kAllMethods) {
      const SpanTotals s = t.totals(method_span(m));
      v[std::string(method_span(m)) + "_ms"] = s.mean_ms();
      point_ms += s.total_ms;
    }
    const double map_ms = t.totals("sweep.map_batched").total_ms;
    v["sweep.busy_frac"] = map_ms > 0 ? point_ms / map_ms : 0;
    v["vgpu.pool_reuse_frac"] =
        1.0 - static_cast<double>(machines_built) / static_cast<double>(phase_ops);
    v["vgpu.machine_build_ms"] = cold_build_ms(t, points_);
    return v;
  }

 private:
  std::vector<PointQuery> points_;
};

// ---------------------------------------------------------------------------
// reduce_8gpu: the Section VII case study.
class Reduce8Gpu : public Workload {
 public:
  double tail_q() const override { return 0.9; }
  double nominal_pass_s() const override { return 5.0; }
  vgpu::MachineConfig record_config() const override {
    return vgpu::MachineConfig::dgx1_v100(8);
  }

  void setup(std::uint64_t seed) override {
    plan_ = reduce_plan(seed);
    // Warm-up: the plan's single-GPU ops, untimed.
    PassOutput scratch;
    Digest d;
    for (const ReduceOp& op : plan_)
      if (!op.multi) run_op(op, &scratch, &d);
  }

  PassOutput run_pass(int pass) override {
    PassOutput out;
    Digest d;
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      Span s("op", static_cast<std::int64_t>(pass) * static_cast<std::int64_t>(plan_.size()) +
                       static_cast<std::int64_t>(i));
      d.u64(i);
      const auto t0 = Clock::now();
      bool ok = false;
      try {
        ok = run_op(plan_[i], &out, &d);
      } catch (const std::exception& e) {
        std::cerr << "reduce op " << i << " threw: " << e.what() << "\n";
      }
      out.op_ms.push_back(ms_since(t0));
      ++out.ops;
      if (!ok) ++out.failed;
    }
    out.digest = d.value();
    return out;
  }

  /// One op: System build, allocation and fill_pattern, then the reduction.
  /// True when the reduced value equals the closed-form pattern sum.
  static bool run_op(const ReduceOp& op, PassOutput* out, Digest* d,
                     double* gbs = nullptr) {
    std::unique_ptr<scuda::System> sys;
    {
      Span s("vgpu.machine_build");
      sys = std::make_unique<scuda::System>(
          op.multi ? vgpu::MachineConfig::dgx1_v100(std::max(op.gpus, 2))
                   : vgpu::MachineConfig::single(vgpu::v100()));
    }
    std::vector<vgpu::DevPtr> shards;
    {
      Span s("vgpu.alloc_fill");
      for (int g = 0; g < op.gpus; ++g) {
        shards.push_back(sys->malloc(g, op.n * 8));
        reduction::fill_pattern(*sys, shards.back(), op.n);
      }
    }
    reduction::ReduceRun r;
    if (op.multi) {
      Span s(op.algo == reduction::MultiGpuAlgo::MGridSync ? "reduction.multi_mgrid"
                                                            : "reduction.multi_cpu_barrier");
      r = reduction::reduce_multi(*sys, op.algo, shards, op.n);
    } else {
      Span s("reduction.single");
      r = reduction::reduce_single(*sys, op.single, 0, shards[0], op.n);
    }
    d->f64(r.value);
    d->f64(r.micros);
    d->f64(r.bandwidth_gbs);
    add_machine_totals(*sys, out, d);
    if (gbs) *gbs = r.bandwidth_gbs;
    const double expected = reduction::expected_pattern_sum(op.n) * op.gpus;
    if (r.value != expected) {
      std::cerr << "reduce op: got " << r.value << ", expected " << expected << "\n";
      return false;
    }
    return true;
  }

  LayerValues layer_values(const Trace& t, std::int64_t phase_ops,
                           std::uint64_t machines_built) override {
    LayerValues v;
    v["reduction.single_ms"] = span_mean(t, "reduction.single");
    v["reduction.multi_mgrid_ms"] = span_mean(t, "reduction.multi_mgrid");
    v["reduction.multi_cpu_barrier_ms"] = span_mean(t, "reduction.multi_cpu_barrier");
    v["vgpu.machine_build_ms"] = span_mean(t, "vgpu.machine_build");
    v["vgpu.alloc_fill_ms"] = span_mean(t, "vgpu.alloc_fill");
    v["vgpu.pool_reuse_frac"] =
        1.0 - static_cast<double>(machines_built) / static_cast<double>(phase_ops);
    return v;
  }

 private:
  std::vector<ReduceOp> plan_;
};

// ---------------------------------------------------------------------------
// allreduce_sharded: the only workload with several window workers.
class AllReduceSharded : public Workload {
 public:
  static constexpr int kGpus = 8;

  double tail_q() const override { return 0.9; }
  double nominal_pass_s() const override { return 0.17; }
  vgpu::MachineConfig record_config() const override {
    return vgpu::MachineConfig::dgx1_v100(kGpus);
  }

  void setup(std::uint64_t seed) override {
    plan_ = allreduce_plan(seed);
    PassOutput scratch;
    Digest d;
    for (const AllReduceOp& op : plan_) run_op(op, &scratch, &d);
  }

  PassOutput run_pass(int pass) override {
    PassOutput out;
    Digest d;
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      Span s("op", static_cast<std::int64_t>(pass) * static_cast<std::int64_t>(plan_.size()) +
                       static_cast<std::int64_t>(i));
      d.u64(i);
      double ms = 0;
      bool ok = false;
      try {
        ok = run_op(plan_[i], &out, &d, &ms);
      } catch (const std::exception& e) {
        std::cerr << "all-reduce op " << i << " threw: " << e.what() << "\n";
      }
      out.op_ms.push_back(ms);
      ++out.ops;
      if (!ok) ++out.failed;
    }
    out.digest = d.value();
    return out;
  }

  static const char* schedule_span(allreduce::Schedule s) {
    switch (s) {
      case allreduce::Schedule::Ring: return "allreduce.ring";
      case allreduce::Schedule::Tree: return "allreduce.tree";
      case allreduce::Schedule::HostStaged: return "allreduce.host_staged";
    }
    return "allreduce.unknown";
  }

  /// One op: System build, gradient allocation and fill, one all-reduce
  /// pass (timed into *ms), then every device's buffer checked against
  /// expected_f64.
  static bool run_op(const AllReduceOp& op, PassOutput* out, Digest* d,
                     double* ms = nullptr, const char* span = nullptr) {
    const auto t0 = Clock::now();
    std::unique_ptr<scuda::System> sys;
    {
      Span s("vgpu.machine_build");
      sys = std::make_unique<scuda::System>(vgpu::MachineConfig::dgx1_v100(kGpus));
    }
    std::vector<vgpu::DevPtr> grads;
    {
      Span s("vgpu.alloc_fill");
      for (int g = 0; g < kGpus; ++g) grads.push_back(sys->malloc(g, op.n * 8));
      allreduce::fill_gradients(*sys, grads, op.n, allreduce::DType::F64);
    }
    allreduce::AllReduceRun r;
    {
      Span s(span ? span : schedule_span(op.schedule));
      allreduce::Options opt;
      opt.warmup_passes = 0;
      r = allreduce::run_all_reduce(*sys, op.schedule, allreduce::DType::F64, grads,
                                    op.n, opt);
    }
    if (ms) *ms = ms_since(t0);
    d->f64(r.micros);
    d->f64(r.algbw_gbs);
    add_machine_totals(*sys, out, d);
    for (int g = 0; g < kGpus; ++g) {
      const std::vector<double> v = sys->read_f64(grads[static_cast<std::size_t>(g)], op.n);
      for (std::int64_t i = 0; i < op.n; ++i)
        if (v[static_cast<std::size_t>(i)] != allreduce::expected_f64(kGpus, i)) {
          std::cerr << "all-reduce " << allreduce::to_string(op.schedule) << ": device "
                    << g << " element " << i << " is " << v[static_cast<std::size_t>(i)]
                    << ", expected " << allreduce::expected_f64(kGpus, i) << "\n";
          return false;
        }
    }
    return true;
  }

  LayerValues layer_values(const Trace& t, std::int64_t phase_ops,
                           std::uint64_t machines_built) override {
    LayerValues v;
    v["allreduce.ring_ms"] = span_mean(t, "allreduce.ring");
    v["allreduce.tree_ms"] = span_mean(t, "allreduce.tree");
    v["allreduce.host_staged_ms"] = span_mean(t, "allreduce.host_staged");
    v["vgpu.machine_build_ms"] = span_mean(t, "vgpu.machine_build");
    v["vgpu.alloc_fill_ms"] = span_mean(t, "vgpu.alloc_fill");
    v["vgpu.pool_reuse_frac"] =
        1.0 - static_cast<double>(machines_built) / static_cast<double>(phase_ops);
    // The same ring and tree passes at one window worker: the parallel
    // efficiency against the single-thread configuration.
    const char* prev = std::getenv("VGPU_SHARD_JOBS");
    const std::string saved = prev ? prev : "";
    setenv("VGPU_SHARD_JOBS", "1", 1);
    PassOutput scratch;
    Digest d;
    for (const AllReduceOp& op : plan_) {
      if (op.schedule == allreduce::Schedule::Ring)
        run_op(op, &scratch, &d, nullptr, "allreduce.ring_1job");
      else if (op.schedule == allreduce::Schedule::Tree)
        run_op(op, &scratch, &d, nullptr, "allreduce.tree_1job");
    }
    if (prev) setenv("VGPU_SHARD_JOBS", saved.c_str(), 1);
    else unsetenv("VGPU_SHARD_JOBS");
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    v["allreduce.ring_speedup_1job"] =
        ratio(span_mean(t, "allreduce.ring_1job"), v["allreduce.ring_ms"]);
    v["allreduce.tree_speedup_1job"] =
        ratio(span_mean(t, "allreduce.tree_1job"), v["allreduce.tree_ms"]);
    return v;
  }

 private:
  std::vector<AllReduceOp> plan_;
};

// ---------------------------------------------------------------------------
// simd_replay: the point layer behind the daemon's cache, admission and
// protocol path.
class SimdReplay : public Workload {
 public:
  static constexpr int kConnections = 2;
  static constexpr int kWorkers = 2;
  static constexpr int kReconnectEvery = 100;  // requests per connection

  double tail_q() const override { return 0.99; }
  double nominal_pass_s() const override { return 0.2; }
  int callers() const override { return kConnections; }
  vgpu::MachineConfig record_config() const override {
    return vgpu::MachineConfig::single(vgpu::v100());
  }

  void setup(std::uint64_t seed) override {
    stream_ = replay_stream(seed, kReplayRequests, kReplayRevisitShare, kReplayInvalidShare);
    first_.clear();
    std::filesystem::create_directories(".bench_build/perfbench");
    sock_ = ".bench_build/perfbench/simd-" + std::to_string(::getpid()) + ".sock";
    simd::ServerOptions opts;
    opts.socket_path = sock_;
    opts.workers = kWorkers;
    server_ = std::make_unique<simd::Server>(opts);
    server_->start();
    // Warm-up: the whole stream under a seed salt no pass uses, so set-up
    // does the same work under every seed.
    simd::Client c;
    std::string err, resp;
    if (!c.connect_to(sock_, &err)) throw std::runtime_error("simd warm-up: " + err);
    for (const PointQuery& sq : stream_) {
      PointQuery q = sq;
      q.seed = ~q.seed >> 1;
      if (!c.request(simd::encode_point_request("warm", q), &resp, &err))
        throw std::runtime_error("simd warm-up: " + err);
    }
  }

  void teardown() override {
    if (server_) server_->stop();
    server_.reset();
  }

  ~SimdReplay() override { teardown(); }

  PassOutput run_pass(int pass) override {
    // Each pass salts the (timeline-neutral) seed field, so its first visit
    // to a point misses the cache again while every answer stays the same.
    const std::uint64_t salt = (static_cast<std::uint64_t>(pass) + 1) * 0x9e3779b97f4a7c15ull;
    const std::size_t n = stream_.size();
    std::vector<std::string> lines(n), resp(n);
    for (std::size_t i = 0; i < n; ++i) {
      PointQuery q = stream_[i];
      q.seed = (q.seed ^ salt) >> 1;
      lines[i] = simd::encode_point_request(std::to_string(i), q);
    }
    std::vector<double> ms(n, 0.0);
    std::vector<char> io_ok(n, 0);
    std::atomic<std::size_t> next{0};
    const std::int64_t base = static_cast<std::int64_t>(pass) * static_cast<std::int64_t>(n);
    auto client = [&] {
      simd::Client c;
      std::string err;
      int sent = 0;
      bool connected = false;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) break;
        if (sent % kReconnectEvery == 0 || !connected) {
          Span s("simd.connect");
          connected = c.connect_to(sock_, &err);
        }
        ++sent;
        Span s("simd.request", base + static_cast<std::int64_t>(i));
        const auto t0 = Clock::now();
        io_ok[i] = connected && c.request(lines[i], &resp[i], &err);
        ms[i] = ms_since(t0);
        if (!io_ok[i]) {
          std::cerr << "request " << i << " failed: " << err << "\n";
          connected = false;
        }
      }
    };
    std::vector<std::thread> clients;
    for (int k = 0; k < kConnections; ++k) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();

    PassOutput out;
    Digest d;
    const bool first_pass = first_.empty();
    for (std::size_t i = 0; i < n; ++i) {
      ++out.ops;
      out.op_ms.push_back(ms[i]);
      const std::string& r = resp[i];
      const bool ok = io_ok[i] && simd::extract_scalar_field(r, "ok") == "true";
      const std::string answer = ok ? simd::extract_object_field(r, "result") : r;
      const std::string error = ok ? "" : simd::extract_scalar_field(r, "error");
      // Only a bad_request is a correct answer (for an invalid query, which
      // verify_after checks); backpressure, simulation errors and lost
      // connections are failed ops.
      bool good = ok || (io_ok[i] && error == "\"bad_request\"");
      if (first_pass) first_.push_back(answer);
      else if (answer != first_[i]) good = false;
      if (!good) {
        ++out.failed;
        continue;
      }
      d.u64(i);
      d.str(answer);
      if (ok) {
        const std::string unit = simd::extract_scalar_field(answer, "unit");
        const double value = std::strtod(simd::extract_scalar_field(answer, "value").c_str(), nullptr);
        out.virtual_ms += point_virtual_ms(stream_[i].arch, value,
                                           unit.size() > 2 ? unit.substr(1, unit.size() - 2) : unit);
        classify(stream_[i], r, ms[i]);
      }
    }
    out.digest = d.value();
    return out;
  }

  std::int64_t verify_after() override {
    // Every answer of the first pass (later passes must equal it byte for
    // byte) against the library executed directly.
    std::map<std::string, std::string> reference;
    std::int64_t wrong = 0;
    for (std::size_t i = 0; i < stream_.size() && i < first_.size(); ++i) {
      const PointQuery& q = stream_[i];
      const std::string diag = simd::validate(q);
      std::string expected;
      if (!diag.empty()) {
        expected = simd::encode_error(std::to_string(i), "bad_request", diag);
      } else {
        const std::string key = simd::encode_point_request("", q);
        auto it = reference.find(key);
        if (it == reference.end())
          it = reference.emplace(key, simd::serialize_result(simd::run_point(q))).first;
        expected = it->second;
      }
      if (first_[i] != expected) {
        if (wrong < 5)
          std::cerr << "request " << i << ": got " << first_[i] << ", expected " << expected
                    << "\n";
        ++wrong;
      }
    }
    return wrong;
  }

  void begin_layer_phase() override {
    acc_ = Acc{};
    at_begin_ = server_->stats();
  }

  LayerValues layer_values(const Trace& t, std::int64_t, std::uint64_t machines_built) override {
    const simd::ServerStats now = server_->stats();
    LayerValues v;
    const double hits = static_cast<double>(acc_.hits);
    const double misses = static_cast<double>(acc_.misses);
    v["simd.hit_us"] = hits > 0 ? acc_.hit_ms * 1e3 / hits : 0;
    v["simd.miss_ms"] = misses > 0 ? acc_.miss_ms / misses : 0;
    v["simd.queue_wait_ms"] = misses > 0 ? acc_.queue_wait_ms / misses : 0;
    v["simd.exec_wall_ms"] = misses > 0 ? acc_.exec_wall_ms / misses : 0;
    v["simd.hit_frac"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    v["simd.connect_ms"] = span_mean(t, "simd.connect");
    v["simd.coalesced"] = static_cast<double>(now.coalesced - at_begin_.coalesced);
    v["simd.rejected"] = static_cast<double>(now.rejected - at_begin_.rejected);
    v["simd.errors"] = static_cast<double>(now.errors - at_begin_.errors);
    const double executed = static_cast<double>(now.executed - at_begin_.executed);
    v["vgpu.pool_reuse_frac"] =
        executed > 0 ? 1.0 - static_cast<double>(machines_built) / executed : 0;
    for (Method m : kAllMethods) {
      const auto& e = acc_.exec[static_cast<int>(m)];
      v[std::string(method_span(m)) + "_ms"] = e.second ? e.first / e.second : 0;
    }
    v["vgpu.machine_build_ms"] = cold_build_ms(t, stream_);
    return v;
  }

 private:
  void classify(const PointQuery& q, const std::string& resp, double ms) {
    auto num = [&](const char* f) {
      return std::strtod(simd::extract_scalar_field(resp, f).c_str(), nullptr);
    };
    std::lock_guard<std::mutex> lk(acc_mu_);
    if (simd::extract_scalar_field(resp, "cached") == "true") {
      ++acc_.hits;
      acc_.hit_ms += ms;
      return;
    }
    ++acc_.misses;
    acc_.miss_ms += ms;
    acc_.queue_wait_ms += num("queue_wait_us") / 1e3;
    const double exec_ms = num("exec_wall_us") / 1e3;
    acc_.exec_wall_ms += exec_ms;
    auto& e = acc_.exec[static_cast<int>(q.method)];
    e.first += exec_ms;
    e.second += 1;
  }

  struct Acc {
    std::int64_t hits = 0, misses = 0;
    double hit_ms = 0, miss_ms = 0, queue_wait_ms = 0, exec_wall_ms = 0;
    std::pair<double, double> exec[5] = {};
  };

  std::vector<PointQuery> stream_;
  std::vector<std::string> first_;  // first pass's answers, by request index
  std::string sock_;
  std::unique_ptr<simd::Server> server_;
  std::mutex acc_mu_;
  Acc acc_;
  simd::ServerStats at_begin_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep_points", "reduce_8gpu",
                                                 "allreduce_sharded", "simd_replay"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep_points") return std::make_unique<SweepPoints>();
  if (name == "reduce_8gpu") return std::make_unique<Reduce8Gpu>();
  if (name == "allreduce_sharded") return std::make_unique<AllReduceSharded>();
  if (name == "simd_replay") return std::make_unique<SimdReplay>();
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> workload_env(const std::string& name) {
  if (name == "reduce_8gpu") return {{"VGPU_SHARD_JOBS", "1"}};
  if (name == "allreduce_sharded") {
    // Two window workers, not one per CPU: several windows still run in
    // parallel, and the rest of a shared 4-CPU host is left to the
    // benchmark's own thread and the OS instead of being oversubscribed.
    return {{"VGPU_EXEC", "sharded"},
            {"VGPU_SHARD_JOBS", std::to_string(std::min(2, sweep::hardware_jobs()))}};
  }
  return {};
}

double multi_reduce_gbs(reduction::MultiGpuAlgo algo, int gpus, std::int64_t n) {
  ReduceOp op;
  op.multi = true;
  op.algo = algo;
  op.gpus = gpus;
  op.n = n;
  PassOutput out;
  Digest d;
  double gbs = 0;
  Reduce8Gpu::run_op(op, &out, &d, &gbs);
  return gbs;
}

}  // namespace perfbench
