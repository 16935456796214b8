#pragma once
// Every metric the benchmark prints, in the order BENCHMARK.json lists
// them. Every workload prints every metric of its mode: an untraced run
// the end-to-end ones, each measured by every workload on its own
// operations, and a traced run the per-layer ones. A per-layer metric
// is measured on the one workload named next to it; the other
// workloads print 0 for it.

#include <array>

namespace perfbench {

enum MetricKind : bool { kEndToEnd = false, kPerLayer = true };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
  const char* workload;  ///< the one that measures it; nullptr: every one
};

inline constexpr auto kMetricSpecs = std::to_array<MetricSpec>({
    {"setup_s", "s", kEndToEnd, nullptr},
    {"heavy_op_ms", "ms", kEndToEnd, nullptr},
    {"light_op_ms", "ms", kEndToEnd, nullptr},
    {"cpu_ms_per_op", "ms", kEndToEnd, nullptr},
    {"peak_mem_mb", "MB", kEndToEnd, nullptr},
    {"codec.predict_quantize_s", "s", kPerLayer, "archive_batch"},
    {"codec.entropy_s", "s", kPerLayer, "archive_batch"},
    {"codec.huffman_s", "s", kPerLayer, "archive_batch"},
    {"codec.lossless_s", "s", kPerLayer, "archive_batch"},
    {"compressor.mb_s.CESM", "MB/s", kPerLayer, "archive_batch"},
    {"compressor.mb_s.ISABEL", "MB/s", kPerLayer, "archive_batch"},
    {"compressor.mb_s.Miranda", "MB/s", kPerLayer, "archive_batch"},
    {"compressor.mb_s.Nyx", "MB/s", kPerLayer, "archive_batch"},
    {"compressor.mb_s.RTM", "MB/s", kPerLayer, "archive_batch"},
    {"core.adaptive_overhead_s", "s", kPerLayer, "archive_batch"},
    {"features.extract_s", "s", kPerLayer, "archive_batch"},
    {"adaptive.blocks", "count", kPerLayer, "archive_batch"},
    {"adaptive.non_default_blocks", "count", kPerLayer, "archive_batch"},
    {"exec.par_compress_mb_s", "MB/s", kPerLayer, "archive_batch"},
    {"exec.blocks", "count", kPerLayer, "archive_batch"},
    {"exec.speedup_compress", "x", kPerLayer, "archive_batch"},
    {"exec.speedup_decompress", "x", kPerLayer, "archive_batch"},
    {"exec.busy_share", "fraction", kPerLayer, "archive_batch"},
    {"exec.mb_per_cpu_s", "MB/s", kPerLayer, "archive_batch"},
    {"exec.par_decompress_mb_s", "MB/s", kPerLayer, "archive_batch"},
    {"io.index_s", "s", kPerLayer, "archive_batch"},
    {"alloc.compress_per_mb", "count/MB", kPerLayer, "archive_batch"},
    {"alloc.decompress_per_mb", "count/MB", kPerLayer, "archive_batch"},
    {"codec.ratio", "x", kPerLayer, "archive_batch"},
    {"codec.psnr_db", "dB", kPerLayer, "archive_batch"},
    {"io.load_field_us.compress", "us", kPerLayer, "daemon_mixed"},
    {"io.load_field_us.light", "us", kPerLayer, "daemon_mixed"},
    {"io.save_field_us.decompress", "us", kPerLayer, "daemon_mixed"},
    {"server.engine_ms.compress", "ms", kPerLayer, "daemon_mixed"},
    {"server.overhead_ms.compress", "ms", kPerLayer, "daemon_mixed"},
    {"server.encode_frame_us.compress", "us", kPerLayer, "daemon_mixed"},
    {"server.decode_frame_us.compress", "us", kPerLayer, "daemon_mixed"},
    {"server.p50_ms.compress", "ms", kPerLayer, "daemon_mixed"},
    {"server.p99_ms.compress", "ms", kPerLayer, "daemon_mixed"},
    {"server.samples.compress", "count", kPerLayer, "daemon_mixed"},
    {"server.engine_ms.decompress", "ms", kPerLayer, "daemon_mixed"},
    {"server.overhead_ms.decompress", "ms", kPerLayer, "daemon_mixed"},
    {"server.encode_frame_us.decompress", "us", kPerLayer, "daemon_mixed"},
    {"server.decode_frame_us.decompress", "us", kPerLayer, "daemon_mixed"},
    {"server.p50_ms.decompress", "ms", kPerLayer, "daemon_mixed"},
    {"server.p99_ms.decompress", "ms", kPerLayer, "daemon_mixed"},
    {"server.samples.decompress", "count", kPerLayer, "daemon_mixed"},
    {"server.engine_ms.light", "ms", kPerLayer, "daemon_mixed"},
    {"server.overhead_ms.light", "ms", kPerLayer, "daemon_mixed"},
    {"server.encode_frame_us.light", "us", kPerLayer, "daemon_mixed"},
    {"server.decode_frame_us.light", "us", kPerLayer, "daemon_mixed"},
    {"server.p50_ms.light", "ms", kPerLayer, "daemon_mixed"},
    {"server.p99_ms.light", "ms", kPerLayer, "daemon_mixed"},
    {"server.samples.light", "count", kPerLayer, "daemon_mixed"},
    {"server.utilisation", "fraction", kPerLayer, "daemon_mixed"},
    {"server.requests_ok", "count", kPerLayer, "daemon_mixed"},
    {"server.rejected", "count", kPerLayer, "daemon_mixed"},
    {"server.errors", "count", kPerLayer, "daemon_mixed"},
    {"load.late_p50_ms", "ms", kPerLayer, "daemon_mixed"},
    {"load.late_max_ms", "ms", kPerLayer, "daemon_mixed"},
    {"orchestrator.register_s", "s", kPerLayer, "fleet_sim"},
    {"orchestrator.run_s", "s", kPerLayer, "fleet_sim"},
    {"sim.campaigns_per_s", "1/s", kPerLayer, "fleet_sim"},
    {"sim.events", "count", kPerLayer, "fleet_sim"},
    {"sim.events_per_s", "1/s", kPerLayer, "fleet_sim"},
    {"sim.queue_ops_per_s", "1/s", kPerLayer, "fleet_sim"},
    {"sim.fair_share_ops_per_s", "1/s", kPerLayer, "fleet_sim"},
    {"sim.peak_flows", "count", kPerLayer, "fleet_sim"},
    {"sim.flows_opened", "count", kPerLayer, "fleet_sim"},
    {"faas.cold_starts", "count", kPerLayer, "fleet_sim"},
    {"faas.warm_hits", "count", kPerLayer, "fleet_sim"},
    {"alloc.per_event", "count", kPerLayer, "fleet_sim"},
    {"obs.overhead_pct.archive_batch", "%", kPerLayer, "archive_batch"},
    {"obs.overhead_pct.daemon_mixed", "%", kPerLayer, "daemon_mixed"},
    {"obs.overhead_pct.fleet_sim", "%", kPerLayer, "fleet_sim"},
});

}  // namespace perfbench
