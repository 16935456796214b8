// archive_batch: the paper's data path. A campaign's fields go
// through Engine::compress_fields (adaptive policy, OCB1 blocks,
// value-range-relative bound 1e-3) and back through
// parallel_decompress, first at one worker, then at every hardware
// thread. The codec, compressor, advisor, block container and executor
// do nearly all the work; the daemon and the simulator do none.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "datagen/datasets.hpp"
#include "features/features.hpp"
#include "io/block_container.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

using namespace ocelot;

namespace perfbench {
namespace {

constexpr double kRelBound = 1e-3;
constexpr int kSetupChildren = 9;
/// All-core work before parallel passes are timed: on a shared vCPU
/// host four busy threads can get one core's worth of throughput for
/// the first ~1.3 s after a process goes all-core.
constexpr double kParallelWarmupS = 2.0;

struct FieldSpec {
  std::string app;
  std::string field;
  double scale;
};

/// Scales that give every field 65k-85k values (0.26-0.34 MB).
constexpr std::pair<const char*, double> kApps[] = {
    {"Miranda", 0.13}, {"CESM", 0.1}, {"ISABEL", 0.15}, {"Nyx", 0.085},
    {"RTM", 0.12}};

/// Every field of five applications: 42 fields, 2-D and 3-D, smooth
/// and sparse. Many small fields rather than a few large ones keep the
/// seed-to-seed spread of the totals small (one field's compressed size
/// moves 10-20% with its seed), and the mix makes the advisor move
/// blocks off its base backend (lorenzo and lorenzo2 on the turbulence,
/// velocity and masked ice fields) while sz3-interp keeps the smooth
/// climate fields.
std::vector<FieldSpec> field_specs() {
  std::vector<FieldSpec> specs;
  for (const auto& [app, scale] : kApps) {
    for (const std::string& field : field_names(app)) {
      specs.push_back({app, field, scale});
    }
  }
  return specs;
}

EngineRequest archive_request(std::size_t workers, bool adaptive = true) {
  EngineRequest request;
  request.config.eb_mode = EbMode::kValueRangeRel;
  request.config.eb = kRelBound;
  request.adaptive = adaptive;
  request.workers = workers;
  return request;
}

std::vector<FloatArray> generate_fields(const std::vector<FieldSpec>& specs,
                                       std::uint64_t seed) {
  std::vector<FloatArray> fields(specs.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    jobs.emplace_back([&fields, &specs, i, seed] {
      fields[i] = generate_field(specs[i].app, specs[i].field, specs[i].scale,
                                 seed * 1000 + i);
    });
  }
  run_parallel(std::move(jobs));
  return fields;
}

/// A child forked before this process first calls the codec. On
/// request it runs one 1-worker compress pass, which therefore carries
/// every lazy initialisation a one-shot CLI run pays, and reports its
/// wall time. The children are forked at the start and run one at a
/// time through the serial phase, so their median samples the host over
/// that whole phase rather than its first second.
class ColdChild {
 public:
  explicit ColdChild(const std::vector<FloatArray>& fields) {
    int go[2], result[2];
    if (pipe(go) != 0) return;
    if (pipe(result) != 0) {
      close(go[0]);
      close(go[1]);
      return;
    }
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      close(go[1]);
      close(result[0]);
      char c = 0;
      if (read(go[0], &c, 1) == 1) {
        const double t0 = now_s();
        const ParallelCompressResult r =
            Engine::shared().compress_fields(fields, archive_request(1));
        double wall = now_s() - t0;
        if (r.blobs.size() != fields.size()) wall = -1.0;
        (void)!write(result[1], &wall, sizeof(wall));
      }
      _exit(0);
    }
    close(go[0]);
    close(result[1]);
    go_ = go[1];
    result_ = result[0];
  }

  ColdChild(const ColdChild&) = delete;
  ColdChild& operator=(const ColdChild&) = delete;
  /// A child never asked is killed: the later children hold copies of
  /// its request pipe, so closing ours would not wake it.
  ~ColdChild() {
    if (pid_ > 0) kill(pid_, SIGKILL);
    (void)reap();
  }

  /// Runs the child's pass and reaps the child; returns the pass's wall
  /// time, or a negative value if the child failed.
  double run() {
    const char c = 1;
    double wall = -1.0;
    if (pid_ <= 0 || write(go_, &c, 1) != 1 ||
        read(result_, &wall, sizeof(wall)) != sizeof(wall)) {
      wall = -1.0;
    }
    return reap() ? wall : -1.0;
  }

 private:
  /// Closes the pipes and waits for the child; true if it exited
  /// cleanly.
  bool reap() {
    if (go_ >= 0) close(go_);
    if (result_ >= 0) close(result_);
    go_ = result_ = -1;
    if (pid_ <= 0) return false;
    int status = 0;
    const bool waited = waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    return waited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid_ = -1;
  int go_ = -1;
  int result_ = -1;
};

bool same_bytes(const std::vector<Bytes>& a, const std::vector<Bytes>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size()) != 0) {
      return false;
    }
  }
  return true;
}

bool same_values(const std::vector<FloatArray>& a,
                 const std::vector<FloatArray>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].values().data(), b[i].values().data(),
                    a[i].byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

/// The run's inputs, reference output and checkers.
class Archive {
 public:
  Archive(const RunArgs& args, Outcome& out)
      : out_(out),
        specs_(field_specs()),
        fields_(generate_fields(specs_, args.seed)) {
    for (const FloatArray& f : fields_) {
      raw_bytes_ += static_cast<double>(f.byte_size());
    }
  }

  [[nodiscard]] const std::vector<FieldSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<FloatArray>& fields() const {
    return fields_;
  }
  [[nodiscard]] double raw_mb() const { return raw_bytes_ * 1e-6; }
  [[nodiscard]] const std::vector<Bytes>& reference() const {
    return reference_.blobs;
  }
  [[nodiscard]] const AdaptiveSummary& summary() const { return summary_; }
  [[nodiscard]] std::size_t blocks() const { return reference_.task_count; }
  [[nodiscard]] double ratio() const { return reference_.ratio(); }
  [[nodiscard]] double psnr_db() const { return psnr_db_; }

  /// Untimed first pass: the reference containers every later pass
  /// must reproduce byte for byte, and the restored values every later
  /// decompress must reproduce exactly, checked here against the bound.
  void make_reference() {
    reference_ = Engine::shared().compress_fields(fields_, archive_request(1),
                                          &summary_);
    restored_ = parallel_decompress(reference_.blobs, 1).fields;
    out_.check(restored_.size() == fields_.size(), "restored field count");
    double psnr_sum = 0.0;
    for (std::size_t i = 0; i < fields_.size() && i < restored_.size(); ++i) {
      const Fidelity f = fidelity(fields_[i], restored_[i]);
      out_.check(f.max_abs_err <= kRelBound * f.range,
                 "error bound violated on " + specs_[i].app + "/" +
                     specs_[i].field);
      psnr_sum += f.psnr_db;
    }
    psnr_db_ = psnr_sum / static_cast<double>(fields_.size());
  }

  /// One timed compress pass; its containers must equal the reference.
  double compress_pass(std::size_t workers, const std::string& span) {
    OpCount& op = out_.op(workers == 1 ? "compress_pass" : "par_compress_pass");
    ++op.attempted;
    const double t0 = now_s();
    ParallelCompressResult r;
    {
      const Span s(span);
      r = Engine::shared().compress_fields(fields_, archive_request(workers));
    }
    const double wall = now_s() - t0;
    if (!same_bytes(r.blobs, reference_.blobs)) {
      ++op.failed;
      out_.fail("containers at " + std::to_string(workers) +
                " workers differ from the 1-worker reference");
    }
    return wall;
  }

  /// One timed decompress pass; its values must equal the checked
  /// reference restore.
  double decompress_pass(std::size_t workers, const std::string& span) {
    OpCount& op =
        out_.op(workers == 1 ? "decompress_pass" : "par_decompress_pass");
    ++op.attempted;
    const double t0 = now_s();
    ParallelDecompressResult r;
    {
      const Span s(span);
      r = parallel_decompress(reference_.blobs, workers);
    }
    const double wall = now_s() - t0;
    if (!same_values(r.fields, restored_)) {
      ++op.failed;
      out_.fail("restored values at " + std::to_string(workers) +
                " workers differ from the checked restore");
    }
    return wall;
  }

 private:
  Outcome& out_;
  std::vector<FieldSpec> specs_;
  std::vector<FloatArray> fields_;
  double raw_bytes_ = 0.0;
  ParallelCompressResult reference_;
  std::vector<FloatArray> restored_;
  AdaptiveSummary summary_;
  double psnr_db_ = 0.0;
};

/// Walls of alternating compress/decompress passes at `workers`.
struct PassWalls {
  std::vector<double> compress;
  std::vector<double> decompress;
  double cpu_s = 0.0;   ///< process CPU over the passes
  double wall_s = 0.0;  ///< wall over the passes
  double compress_cpu_s = 0.0;
};

PassWalls timed_passes(Archive& archive, std::size_t workers,
                       double seconds) {
  PassWalls walls;
  const double start = now_s();
  const double cpu0 = process_cpu_s();
  while (walls.compress.empty() || now_s() - start < seconds) {
    const double c0 = process_cpu_s();
    walls.compress.push_back(archive.compress_pass(
        workers, workers == 1 ? "archive.compress_pass"
                              : "exec.par_compress_pass"));
    walls.compress_cpu_s += process_cpu_s() - c0;
    walls.decompress.push_back(archive.decompress_pass(
        workers, workers == 1 ? "archive.decompress_pass"
                              : "exec.par_decompress_pass"));
  }
  walls.cpu_s = process_cpu_s() - cpu0;
  walls.wall_s = now_s() - start;
  return walls;
}

void warm_all_cores(Archive& archive, std::size_t workers) {
  const double start = now_s();
  while (now_s() - start < kParallelWarmupS) {
    (void)archive.compress_pass(workers, "exec.warmup_pass");
  }
}

void set_tracing(bool on) {
  Tracer::instance().set_enabled(on);
  obs::set_profiling(on);
}

/// Per-layer extras of the traced run that the pass loop does not
/// cover: per-application single-shot throughput, the advisor's cost
/// over a fixed-backend blocked pass, feature extraction and the
/// container index walk.
void layer_extras(Archive& archive, Outcome& out, int reps) {
  const std::vector<FloatArray>& fields = archive.fields();
  const Engine& engine = Engine::shared();

  std::map<std::string, double> app_bytes;
  std::map<std::string, std::vector<double>> app_walls;
  for (int rep = 0; rep < reps; ++rep) {
    std::map<std::string, double> wall;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      Bytes blob;
      const std::string& app = archive.specs()[i].app;
      const double t0 = now_s();
      {
        const Span s("compressor.compress." + app);
        (void)engine.compress(fields[i], archive_request(1, false), blob);
      }
      wall[app] += now_s() - t0;
      if (rep == 0) app_bytes[app] += static_cast<double>(fields[i].byte_size());
    }
    for (const auto& [app, w] : wall) app_walls[app].push_back(w);
  }
  for (const auto& [app, walls] : app_walls) {
    out.metric("compressor.mb_s." + app, app_bytes[app] * 1e-6 / median(walls),
               "MB/s");
  }

  EngineRequest fixed_blocked = archive_request(1, false);
  fixed_blocked.block_slabs = 8;  // the adaptive path's block size
  std::vector<double> adaptive_walls, fixed_walls, feature_walls, index_walls;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = now_s();
    {
      const Span s("core.adaptive_pass");
      (void)engine.compress_fields(fields, archive_request(1));
    }
    adaptive_walls.push_back(now_s() - t0);
    t0 = now_s();
    {
      const Span s("core.fixed_blocked_pass");
      (void)engine.compress_fields(fields, fixed_blocked);
    }
    fixed_walls.push_back(now_s() - t0);

    t0 = now_s();
    {
      const Span s("features.extract");
      for (const FloatArray& f : fields) {
        const DataFeatures df = extract_data_features(f);
        const CompressorFeatures cf = extract_compressor_features(
            f, kRelBound * df.value_range, AdaptiveOptions{}.sample_stride);
        if (cf.sampled_points == 0) out.fail("feature extraction sampled nothing");
      }
    }
    feature_walls.push_back(now_s() - t0);

    t0 = now_s();
    {
      const Span s("io.index");
      std::size_t blocks = 0;
      for (const Bytes& c : archive.reference()) {
        const BlockContainerInfo info = read_block_index(c);
        for (std::size_t b = 0; b < info.blocks.size(); ++b) {
          blocks += block_payload(c, info, b).empty() ? 0 : 1;
        }
      }
      if (blocks != archive.blocks()) out.fail("container index block count");
    }
    index_walls.push_back(now_s() - t0);
  }
  out.metric("core.adaptive_overhead_s",
             median(adaptive_walls) - median(fixed_walls), "s");
  out.metric("features.extract_s", median(feature_walls), "s");
  out.metric("io.index_s", median(index_walls), "s");
}

}  // namespace

Outcome run_archive_batch(const RunArgs& args) {
  Outcome out;
  const std::size_t nproc = Engine::resolve_workers(0);
  Archive archive(args, out);

  std::vector<std::unique_ptr<ColdChild>> children;
  if (!args.trace) {
    for (int i = 0; i < kSetupChildren; ++i) {
      children.push_back(std::make_unique<ColdChild>(archive.fields()));
    }
  }
  archive.make_reference();
  if (!out.correct) return out;

  const double serial_share = 0.45;
  const double parallel_s =
      std::max(1.0, args.seconds * (1.0 - serial_share) - kParallelWarmupS);

  if (!args.trace) {
    set_tracing(false);
    const bench::AllocCounters live = bench::alloc_counters();
    bench::reset_alloc_peak();
    // The serial phase in kSetupChildren slices, each after one cold
    // child's pass; the parent waits for the child, so they never
    // overlap.
    std::vector<double> setup_walls, serial_compress, serial_decompress;
    for (const std::unique_ptr<ColdChild>& child : children) {
      const double wall = child->run();
      out.check(wall > 0.0, "cold-pass child failed");
      setup_walls.push_back(wall);
      const PassWalls slice = timed_passes(
          archive, 1, args.seconds * serial_share / kSetupChildren);
      serial_compress.insert(serial_compress.end(), slice.compress.begin(),
                             slice.compress.end());
      serial_decompress.insert(serial_decompress.end(),
                               slice.decompress.begin(),
                               slice.decompress.end());
    }
    warm_all_cores(archive, nproc);
    const PassWalls par = timed_passes(archive, nproc, parallel_s);
    const double peak_mb =
        static_cast<double>(bench::alloc_counters().peak_bytes -
                            live.current_bytes) * 1e-6;

    // Every pass of the all-core phase, compress and decompress alike,
    // is one operation for cpu_ms_per_op. Its compress walls are the
    // per-layer exec.par_compress_mb_s and its decompress walls
    // exec.par_decompress_mb_s: on the reference host the compress
    // median moved by up to 2.6x between runs, because the advisor's
    // wave barriers wait on the slowest vCPU.
    const auto par_passes =
        static_cast<double>(par.compress.size() + par.decompress.size());
    out.metric("setup_s", median(setup_walls), "s");
    out.metric("heavy_op_ms", median(serial_compress) * 1e3, "ms");
    out.metric("light_op_ms", median(serial_decompress) * 1e3, "ms");
    out.metric("cpu_ms_per_op", par.cpu_s * 1e3 / par_passes, "ms");
    out.metric("peak_mem_mb", peak_mb, "MB");
    return out;
  }

  // Traced run: untraced and traced 1-worker passes alternate, so the
  // tracing overhead is measured on the same machine state; codec
  // stage totals and allocation counts come from the traced and
  // untraced passes respectively. Pass timings come from the walls
  // each pass returns; the spans around the same calls go only to the
  // trace file.
  std::vector<double> plain_c, plain_d, traced_c, traced_d;
  std::map<std::string, double> stage_s;
  double allocs_c = 0.0, allocs_d = 0.0;
  const double serial_start = now_s();
  while (traced_c.empty() ||
         now_s() - serial_start < args.seconds * serial_share) {
    set_tracing(false);
    std::uint64_t a0 = bench::alloc_counters().allocs;
    plain_c.push_back(archive.compress_pass(1, "archive.compress_pass"));
    allocs_c += static_cast<double>(bench::alloc_counters().allocs - a0);
    a0 = bench::alloc_counters().allocs;
    plain_d.push_back(archive.decompress_pass(1, "archive.decompress_pass"));
    allocs_d += static_cast<double>(bench::alloc_counters().allocs - a0);

    set_tracing(true);
    obs::reset_metrics();
    traced_c.push_back(archive.compress_pass(1, "archive.compress_pass"));
    for (const obs::StageSnapshot& s : obs::metrics_snapshot().stages) {
      stage_s[s.name] += static_cast<double>(s.total_ns) * 1e-9;
    }
    traced_d.push_back(archive.decompress_pass(1, "archive.decompress_pass"));
  }
  const auto per_pass = [&](const char* stage) {
    return stage_s[stage] / static_cast<double>(traced_c.size());
  };
  out.metric("codec.predict_quantize_s", per_pass("codec.predict_quantize"),
             "s");
  out.metric("codec.entropy_s", per_pass("codec.entropy.codes"), "s");
  out.metric("codec.huffman_s", per_pass("codec.huffman"), "s");
  out.metric("codec.lossless_s", per_pass("codec.lossless"), "s");
  const double passes = static_cast<double>(plain_c.size());
  out.metric("alloc.compress_per_mb", allocs_c / passes / archive.raw_mb(),
             "count/MB");
  out.metric("alloc.decompress_per_mb", allocs_d / passes / archive.raw_mb(),
             "count/MB");
  out.metric("obs.overhead_pct.archive_batch",
             (median(traced_c) / median(plain_c) - 1.0) * 100.0, "%");

  set_tracing(true);
  warm_all_cores(archive, nproc);
  const PassWalls par = timed_passes(archive, nproc, parallel_s);
  const double serial_c = median(traced_c);
  const double serial_d = median(traced_d);
  const double par_c = median(par.compress);
  const double par_d = median(par.decompress);
  out.metric("exec.par_compress_mb_s", archive.raw_mb() / par_c, "MB/s");
  out.metric("exec.par_decompress_mb_s", archive.raw_mb() / par_d, "MB/s");
  out.metric("exec.blocks", static_cast<double>(archive.blocks()), "count");
  out.metric("exec.speedup_compress", serial_c / par_c, "x");
  out.metric("exec.speedup_decompress", serial_d / par_d, "x");
  out.metric("exec.busy_share",
             par.cpu_s / (par.wall_s * static_cast<double>(nproc)), "fraction");
  out.metric("exec.mb_per_cpu_s",
             archive.raw_mb() * static_cast<double>(par.compress.size()) /
                 par.compress_cpu_s,
             "MB/s");

  std::size_t non_default = 0;
  for (const auto& [backend, n] : archive.summary().backend_blocks) {
    if (backend != CompressionConfig{}.backend) non_default += n;
  }
  out.metric("codec.ratio", archive.ratio(), "x");
  out.metric("codec.psnr_db", archive.psnr_db(), "dB");
  out.metric("adaptive.blocks", static_cast<double>(archive.summary().blocks),
             "count");
  out.metric("adaptive.non_default_blocks", static_cast<double>(non_default),
             "count");

  layer_extras(archive, out, 3);
  set_tracing(false);
  if (!args.trace_dir.empty()) {
    Tracer::instance().write(args.trace_dir + "/archive_batch-seed" +
                             std::to_string(args.seed) + ".json");
  }
  return out;
}

}  // namespace perfbench
