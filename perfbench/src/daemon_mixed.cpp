// daemon_mixed: an open-loop request schedule against ocelotd over a
// unix socket. The daemon runs in a forked child process (2 workers),
// so its CPU time and heap are measured apart from the load generator,
// which is this process: one sender thread and one reader thread per
// connection, two connections.
//
// Two tenants share the daemon. "heavy" sends ~1 MB compress requests
// and decompress requests for their blobs; "light" sends ~0.25 MB
// compress requests. Every request uses a fixed backend, so the
// advisor, the block container and the parallel executor are
// bypassed: framing, admission, scheduling and socket copies sit on
// every request. Decompress responses are large where compress
// responses are small, so a change to the respond path shows on one
// class and not the other.
//
// Each round of kRoundS seconds sends one heavy compress, one heavy
// decompress and two light compress requests at fixed offsets, about
// 0.4 of a core of demand. Each gap is longer than the request before
// it takes, so on a calm host requests seldom overlap: at half a core
// with even gaps, overlaps turned a 12% drift in CPU per request into
// a 38% drift in the per-class medians. Latency runs from each
// request's due time to its reply, so a stalled generator is charged
// too; how late the generator ran is reported separately.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common.hpp"
#include "common/options.hpp"
#include "core/engine.hpp"
#include "datagen/datasets.hpp"
#include "io/dataset_file.hpp"
#include "obs/trace.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "workloads.hpp"

using namespace ocelot;

namespace perfbench {
namespace {

constexpr double kRelBound = 1e-3;
constexpr std::size_t kDaemonWorkers = 2;
constexpr const char* kOptions = "eb=1e-3 backend=sz3-interp";
constexpr double kRoundS = 0.0625;
constexpr int kSetupStarts = 25;
/// Rounds per heap high-water sample (one second). The window's peak is
/// the median of these samples: one overlap of two heavy requests,
/// which a host stall can cause at any time, moves a single window-wide
/// maximum by ~2 MB.
constexpr std::size_t kPeakRounds = 16;
constexpr double kReplyTimeoutS = 30.0;

enum Class : int { kHeavyCompress = 0, kHeavyDecompress = 1, kLight = 2 };
constexpr std::array<const char*, 3> kClassNames = {"compress", "decompress",
                                                    "light"};

/// Request pools: heavy fields are ~1.07 MB 3-D turbulence, light
/// fields ~0.26 MB 2-D climate; requests cycle through each pool.
constexpr std::array<const char*, 8> kHeavyFields = {
    "density",  "velocity-x", "velocity-y", "velocity-z",
    "pressure", "diffusivity", "viscocity", "energy"};
constexpr double kHeavyScale = 0.193;  // Miranda 49x74x74
constexpr std::array<const char*, 8> kLightFields = {
    "CLDHGH", "CLDMED", "FLDSC", "TMQ", "LHFLX", "PSL", "TREFHT", "TS"};
constexpr double kLightScale = 0.1;  // CESM 180x360
/// Independent instances of every pool field (distinct generator
/// seeds): 16 fields per pool keep the per-class medians and the ratio
/// from hanging on a few draws.
constexpr std::size_t kPoolInstances = 2;

/// What the daemon child reports on each control command.
struct ChildReport {
  double cpu_s = 0.0;
  double peak_bytes = 0.0;  ///< heap high-water since the last mark
  double ok = 0, rejected = 0, errors = 0;
};

/// The daemon in a forked child, driven over a control pipe. Every
/// command first reports (CPU time, heap high-water since the previous
/// command above the heap live at the window's start, request
/// counters); then 'M' starts a new window with obs profiling off, 'T'
/// one with it on, 'P' only restarts the high-water, and 'Q' shuts the
/// daemon down.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& socket_path) {
    int ctl[2], rep[2];
    if (pipe(ctl) != 0 || pipe(rep) != 0) throw std::runtime_error("pipe");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the generator
      close(ctl[1]);
      close(rep[0]);
      serve(socket_path, ctl[0], rep[1]);
    }
    close(ctl[0]);
    close(rep[1]);
    ctl_ = ctl[1];
    rep_ = rep[0];
    ChildReport ready;
    if (!receive(ready)) throw std::runtime_error("daemon child did not start");
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  ~DaemonProcess() {
    if (pid_ > 0) {
      ChildReport ignored;
      (void)command('Q', ignored);
      close(ctl_);
      close(rep_);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  bool command(char c, ChildReport& report) {
    return write(ctl_, &c, 1) == 1 && receive(report);
  }

 private:
  [[noreturn]] static void serve(const std::string& socket_path, int ctl,
                                 int rep) {
    obs::set_profiling(false);
    server::DaemonConfig config;
    config.unix_path = socket_path;
    config.workers = kDaemonWorkers;
    server::Daemon daemon(config);
    daemon.start();
    std::uint64_t live = bench::alloc_counters().current_bytes;
    const auto reply = [&] {
      const server::Daemon::Stats s = daemon.stats();
      ChildReport r;
      r.cpu_s = process_cpu_s();
      r.peak_bytes =
          static_cast<double>(bench::alloc_counters().peak_bytes - live);
      r.ok = static_cast<double>(s.requests_ok);
      r.rejected = static_cast<double>(s.requests_rejected);
      r.errors = static_cast<double>(s.requests_error);
      (void)!write(rep, &r, sizeof(r));
    };
    reply();  // ready
    char c = 0;
    while (read(ctl, &c, 1) == 1 && c != 'Q') {
      reply();
      if (c != 'P') {
        obs::set_profiling(c == 'T');
        live = bench::alloc_counters().current_bytes;
      }
      bench::reset_alloc_peak();
    }
    reply();
    daemon.shutdown();
    _exit(0);
  }

  bool receive(ChildReport& report) {
    return read(rep_, &report, sizeof(report)) ==
           static_cast<ssize_t>(sizeof(report));
  }

  pid_t pid_ = -1;
  int ctl_ = -1;
  int rep_ = -1;
};

int connect_unix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

/// A connection's socket, closed on scope exit.
struct Socket {
  explicit Socket(const std::string& path) : fd(connect_unix(path)) {}
  ~Socket() { close(fd); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd;
};

/// One synchronous request/response on `fd` (setup and warm-up only).
server::Frame call(int fd, server::Frame request) {
  server::write_frame(fd, request);
  std::optional<server::Frame> reply = server::read_frame(fd);
  if (!reply) throw std::runtime_error("daemon closed the connection");
  return std::move(*reply);
}

server::Frame request_frame(Class cls, std::uint64_t id, const Bytes& payload) {
  server::Frame f;
  f.type = cls == kHeavyDecompress ? server::FrameType::kDecompress
                                   : server::FrameType::kCompress;
  f.id = id;
  f.tenant = cls == kLight ? "light" : "heavy";
  f.options = cls == kHeavyDecompress ? "" : kOptions;
  f.payload = payload;
  return f;
}

/// Inputs and the replies every request must reproduce.
struct Pools {
  std::vector<FloatArray> heavy, light;
  std::vector<Bytes> heavy_ocf, light_ocf;      ///< compress payloads
  std::vector<Bytes> heavy_blob, light_blob;    ///< Engine::compress bytes
  std::vector<Bytes> restored_ocf;              ///< checked decompress replies

  [[nodiscard]] const Bytes& payload(Class cls, std::size_t i) const {
    switch (cls) {
      case kHeavyCompress: return heavy_ocf[i % heavy_ocf.size()];
      case kHeavyDecompress: return heavy_blob[i % heavy_blob.size()];
      default: return light_ocf[i % light_ocf.size()];
    }
  }
  [[nodiscard]] const Bytes& expected(Class cls, std::size_t i) const {
    switch (cls) {
      case kHeavyCompress: return heavy_blob[i % heavy_blob.size()];
      case kHeavyDecompress: return restored_ocf[i % restored_ocf.size()];
      default: return light_blob[i % light_blob.size()];
    }
  }
};

Pools make_pools(std::uint64_t seed, Outcome& out) {
  Pools p;
  const std::size_t n_heavy = kPoolInstances * kHeavyFields.size();
  const std::size_t n_light = kPoolInstances * kLightFields.size();
  p.heavy.resize(n_heavy);
  p.light.resize(n_light);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < n_heavy; ++i) {
    jobs.emplace_back([&p, i, seed] {
      p.heavy[i] = generate_field("Miranda", kHeavyFields[i % kHeavyFields.size()],
                                  kHeavyScale, seed * 1000 + i);
    });
  }
  for (std::size_t i = 0; i < n_light; ++i) {
    jobs.emplace_back([&p, i, seed] {
      p.light[i] = generate_field("CESM", kLightFields[i % kLightFields.size()],
                                  kLightScale, seed * 1000 + 100 + i);
    });
  }
  run_parallel(std::move(jobs));

  // The same options line the daemon parses, so the in-process bytes
  // are what a correct daemon must answer.
  OptionSet options = OptionSet::from_line(kOptions, "perfbench");
  const EngineRequest request = parse_compression_options(options);
  const auto reference = [&](const std::vector<FloatArray>& fields,
                             const auto& names, const char* app,
                             std::vector<Bytes>& ocf, std::vector<Bytes>& blobs) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string name =
          std::string(app) + "/" + names[i % names.size()];
      ocf.push_back(save_field(name, fields[i]));
      Bytes blob;
      (void)Engine::shared().compress(fields[i], request, blob);
      const Fidelity f = fidelity(fields[i], Engine::shared().decompress(blob));
      out.check(f.max_abs_err <= kRelBound * f.range,
                "in-process bound violated on " + name);
      blobs.push_back(std::move(blob));
    }
  };
  reference(p.heavy, kHeavyFields, "Miranda", p.heavy_ocf, p.heavy_blob);
  reference(p.light, kLightFields, "CESM", p.light_ocf, p.light_blob);
  return p;
}

/// One request of the schedule and what became of it.
struct Request {
  Class cls = kHeavyCompress;
  std::size_t item = 0;  ///< index into the class's pool
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  int replies = 0;
  bool ok = false;     ///< answered with kOk
  bool wrong = false;  ///< kOk, but not the expected bytes
};

/// Reads replies on the heavy or the light connection until `expected`
/// have arrived or the socket closes, matching them to requests by id.
/// Only this thread writes the reply fields of its connection's
/// requests; a reply naming another connection's request is dropped.
void read_replies(int fd, bool light, std::vector<Request>& requests,
                  std::size_t expected, const Pools& pools,
                  std::atomic<int>& finished) {
  for (std::size_t got = 0; got < expected; ++got) {
    std::optional<server::Frame> reply;
    try {
      reply = server::read_frame(fd);
    } catch (const std::exception&) {
      break;
    }
    if (!reply) break;
    const double t = now_s();
    if (reply->id == 0 || reply->id > requests.size()) continue;
    Request& r = requests[reply->id - 1];
    if ((r.cls == kLight) != light) continue;
    ++r.replies;
    r.done = t;
    r.ok = reply->type == server::FrameType::kOk;
    const Bytes& want = pools.expected(r.cls, r.item);
    r.wrong = r.ok && (reply->payload.size() != want.size() ||
                       std::memcmp(reply->payload.data(), want.data(),
                                   want.size()) != 0);
  }
  ++finished;
}

struct Window {
  std::vector<Request> requests;
  ChildReport start, end;
  std::vector<double> peak_bytes;  ///< daemon heap high-water per second
  double wall_s = 0.0;
};

/// Runs one open-loop window of `rounds` rounds against the daemon.
Window run_window(DaemonProcess& daemon, const std::string& socket_path,
                  const Pools& pools, std::size_t rounds, bool traced) {
  Window w;
  constexpr std::array<std::pair<Class, double>, 4> kOffsets = {
      {{kHeavyCompress, 0.0},
       {kLight, 0.3},
       {kHeavyDecompress, 0.55},
       {kLight, 0.8}}};
  const Socket heavy(socket_path), light(socket_path);
  const double t0 = now_s() + 0.05;
  std::size_t light_n = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& [cls, offset] : kOffsets) {
      Request q;
      q.cls = cls;
      q.item = cls == kLight ? light_n++ : r;
      q.due = t0 + (static_cast<double>(r) + offset) * kRoundS;
      w.requests.push_back(q);
    }
  }
  if (!daemon.command(traced ? 'T' : 'M', w.start)) {
    throw std::runtime_error("daemon child stopped answering");
  }
  Tracer::instance().set_enabled(traced);

  std::atomic<int> finished{0};
  std::thread heavy_reader(read_replies, heavy.fd, false,
                           std::ref(w.requests), 2 * rounds, std::cref(pools),
                           std::ref(finished));
  std::thread light_reader(read_replies, light.fd, true, std::ref(w.requests),
                           2 * rounds, std::cref(pools), std::ref(finished));

  // The sender owns `sent`; each frame is built right before its write.
  std::vector<double> sent(w.requests.size(), 0.0);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Request& q = w.requests[i];
    if (i > 0 && i % (kOffsets.size() * kPeakRounds) == 0) {
      ChildReport sample;
      if (!daemon.command('P', sample)) break;
      w.peak_bytes.push_back(sample.peak_bytes);
    }
    while (now_s() < q.due) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(q.due - now_s(), 0.002)));
    }
    sent[i] = now_s();
    try {
      const Span s("client.write_frame");
      server::write_frame(q.cls == kLight ? light.fd : heavy.fd,
                          request_frame(q.cls, i + 1,
                                        pools.payload(q.cls, q.item)));
    } catch (const std::exception&) {
      break;  // the unanswered requests count as failed
    }
  }

  // Replies normally trail the last send by milliseconds; past the
  // timeout the sockets are shut down so the readers return and the
  // missing replies count as failed.
  const double deadline = now_s() + kReplyTimeoutS;
  while (finished.load() < 2 && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < 2) {
    shutdown(heavy.fd, SHUT_RDWR);
    shutdown(light.fd, SHUT_RDWR);
  }
  heavy_reader.join();
  light_reader.join();
  w.wall_s = now_s() - t0;
  if (!daemon.command('M', w.end)) {
    throw std::runtime_error("daemon child stopped answering");
  }
  w.peak_bytes.push_back(w.end.peak_bytes);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    Request& q = w.requests[i];
    q.sent = sent[i];
    if (q.replies > 0) {
      Tracer::instance().add(std::string("request.") + kClassNames[q.cls],
                             q.sent, q.done);
    }
  }
  Tracer::instance().set_enabled(false);
  return w;
}

/// Per-class latency figures of one window. A busy, error, missing or
/// repeated reply fails its request; a kOk reply with other bytes than
/// the checked ones fails the run.
struct ClassStats {
  std::vector<double> latency_ms;  ///< due-to-reply, successful requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::array<ClassStats, 3> class_stats(const Window& w, Outcome& out) {
  std::array<ClassStats, 3> stats;
  for (const Request& q : w.requests) {
    ClassStats& c = stats[q.cls];
    ++c.attempted;
    if (q.wrong) {
      out.fail(std::string("a ") + kClassNames[q.cls] +
               " reply differs from the checked bytes");
    }
    if (q.replies == 1 && q.ok && !q.wrong) {
      c.latency_ms.push_back((q.done - q.due) * 1e3);
    } else {
      ++c.failed;
    }
  }
  return stats;
}

/// Starts the daemon, waits for a ping and one warm-up request per
/// class, and returns the wall time that took. The replies are checked
/// after the clock stops.
double start_daemon(std::unique_ptr<DaemonProcess>& daemon,
                    const std::string& socket_path, const Pools& pools,
                    Outcome& out) {
  daemon.reset();
  const double t0 = now_s();
  daemon = std::make_unique<DaemonProcess>(socket_path);
  const Socket s(socket_path);
  server::Frame ping;
  ping.type = server::FrameType::kPing;
  ping.id = 1;
  const server::Frame pong = call(s.fd, ping);
  std::array<server::Frame, 3> replies;
  for (const Class cls : {kHeavyCompress, kHeavyDecompress, kLight}) {
    replies[cls] = call(s.fd, request_frame(cls, 2 + static_cast<int>(cls),
                                            pools.payload(cls, 0)));
  }
  const double wall = now_s() - t0;
  out.check(pong.type == server::FrameType::kOk && pong.id == 1, "ping reply");
  for (const Class cls : {kHeavyCompress, kHeavyDecompress, kLight}) {
    const server::Frame& r = replies[cls];
    // Decompress replies are checked against the originals once the
    // last daemon is up; compress replies against Engine bytes here.
    out.check(r.type == server::FrameType::kOk &&
                  r.id == 2 + static_cast<std::uint64_t>(cls) &&
                  (cls == kHeavyDecompress ||
                   r.payload == pools.expected(cls, 0)),
              std::string("warm-up ") + kClassNames[cls] + " reply");
  }
  return wall;
}

}  // namespace

Outcome run_daemon_mixed(const RunArgs& args) {
  Outcome out;
  signal(SIGPIPE, SIG_IGN);
  const std::string socket_path =
      ".perfbench-" + std::to_string(getpid()) + ".sock";
  Pools pools = make_pools(args.seed, out);

  std::unique_ptr<DaemonProcess> daemon;
  std::vector<double> setup_walls;
  for (int i = 0; i < kSetupStarts; ++i) {
    setup_walls.push_back(start_daemon(daemon, socket_path, pools, out));
  }

  // The decompress replies every later request must reproduce, each
  // checked against its original field here.
  {
    const Socket s(socket_path);
    for (std::size_t i = 0; i < pools.heavy_blob.size(); ++i) {
      server::Frame reply = call(
          s.fd, request_frame(kHeavyDecompress, 100 + i, pools.heavy_blob[i]));
      const bool ok = reply.type == server::FrameType::kOk;
      out.check(ok, "decompress reply");
      if (!ok) break;
      const Fidelity f = fidelity(pools.heavy[i], load_field(reply.payload).data);
      out.check(f.max_abs_err <= kRelBound * f.range,
                std::string("daemon decompress bound violated on Miranda/") +
                    kHeavyFields[i % kHeavyFields.size()]);
      pools.restored_ocf.push_back(std::move(reply.payload));
    }
  }
  if (!out.correct) return out;

  const auto rounds = static_cast<std::size_t>(args.seconds / kRoundS);
  const Window plain = run_window(*daemon, socket_path, pools, rounds, false);
  const std::array<ClassStats, 3> stats = class_stats(plain, out);
  std::uint64_t ok_requests = 0;
  for (int c = 0; c < 3; ++c) {
    OpCount& op = out.op(kClassNames[c]);
    op.attempted += stats[c].attempted;
    op.failed += stats[c].failed;
    ok_requests += stats[c].attempted - stats[c].failed;
  }
  if (ok_requests == 0) {
    out.fail("no request succeeded");
    return out;
  }
  const double daemon_cpu_s = plain.end.cpu_s - plain.start.cpu_s;
  const std::array<double, 3> p50 = {median(stats[0].latency_ms),
                                     median(stats[1].latency_ms),
                                     median(stats[2].latency_ms)};

  if (!args.trace) {
    // The heavy-decompress median is the per-layer
    // server.p50_ms.decompress: on the reference host its ten-seed
    // quartile spread reached 0.24, at the largest bound allowed.
    out.metric("setup_s", median(setup_walls), "s");
    out.metric("heavy_op_ms", p50[kHeavyCompress], "ms");
    out.metric("light_op_ms", p50[kLight], "ms");
    out.metric("cpu_ms_per_op",
               daemon_cpu_s * 1e3 / static_cast<double>(ok_requests), "ms");
    out.metric("peak_mem_mb", median(plain.peak_bytes) * 1e-6, "MB");
    return out;
  }

  // Traced run: a second, traced window right after the untraced one
  // (which supplies the reference tail and utilisation figures).
  const Window traced = run_window(*daemon, socket_path, pools, rounds, true);
  const std::array<ClassStats, 3> traced_stats = class_stats(traced, out);
  for (int c = 0; c < 3; ++c) {
    OpCount& op = out.op(kClassNames[c]);
    op.attempted += traced_stats[c].attempted;
    op.failed += traced_stats[c].failed;
  }
  out.metric("obs.overhead_pct.daemon_mixed",
             (median(traced_stats[kHeavyCompress].latency_ms) /
                  p50[kHeavyCompress] -
              1.0) * 100.0,
             "%");

  // In-process costs of what the daemon does per request.
  Tracer::instance().set_enabled(true);
  OptionSet options = OptionSet::from_line(kOptions, "perfbench");
  const EngineRequest request = parse_compression_options(options);
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < pools.heavy.size(); ++i) {
      for (const Class cls : {kHeavyCompress, kHeavyDecompress, kLight}) {
        const std::string name = kClassNames[cls];
        const Bytes& payload = pools.payload(cls, i);
        const Bytes& reply_payload = pools.expected(cls, i);
        Bytes wire = server::encode_frame(request_frame(cls, i + 1, payload));
        {
          const Span s("server.decode_frame." + name);
          (void)server::decode_frame(
              std::span<const std::uint8_t>(wire).subspan(4));
        }
        {
          const Span s("server.encode_frame." + name);
          wire = server::encode_frame(server::make_ok(i + 1, reply_payload));
        }
        if (cls == kHeavyDecompress) {
          FloatArray restored;
          {
            const Span s("server.engine." + name);
            restored = Engine::shared().decompress(payload);
          }
          const Span s("io.save_field." + name);
          (void)save_field("decompressed", restored);
        } else {
          LoadedField field;
          {
            const Span s("io.load_field." + name);
            field = load_field(payload);
          }
          Bytes blob;
          const Span s("server.engine." + name);
          (void)Engine::shared().compress(field.data, request, blob);
        }
      }
    }
  }
  Tracer::instance().set_enabled(false);

  const Tracer& tracer = Tracer::instance();
  const auto median_us = [&](const std::string& span) {
    return median(tracer.durations_s(span)) * 1e6;
  };
  for (const Class cls : {kHeavyCompress, kHeavyDecompress, kLight}) {
    const std::string name = kClassNames[cls];
    const double engine_ms = median_us("server.engine." + name) * 1e-3;
    out.metric("server.engine_ms." + name, engine_ms, "ms");
    out.metric("server.overhead_ms." + name, p50[cls] - engine_ms, "ms");
    out.metric("server.encode_frame_us." + name,
               median_us("server.encode_frame." + name), "us");
    out.metric("server.decode_frame_us." + name,
               median_us("server.decode_frame." + name), "us");
    out.metric("server.p50_ms." + name, p50[cls], "ms");
    out.metric("server.p99_ms." + name, percentile(stats[cls].latency_ms, 0.99),
               "ms");
    out.metric("server.samples." + name,
               static_cast<double>(stats[cls].latency_ms.size()), "count");
    if (cls == kHeavyDecompress) {
      out.metric("io.save_field_us." + name, median_us("io.save_field." + name),
                 "us");
    } else {
      out.metric("io.load_field_us." + name, median_us("io.load_field." + name),
                 "us");
    }
  }
  out.metric("server.utilisation", daemon_cpu_s / plain.wall_s, "fraction");
  out.metric("server.requests_ok", plain.end.ok - plain.start.ok, "count");
  out.metric("server.rejected", plain.end.rejected - plain.start.rejected,
             "count");
  out.metric("server.errors", plain.end.errors - plain.start.errors, "count");
  std::vector<double> late_ms;
  for (const Request& q : plain.requests) late_ms.push_back((q.sent - q.due) * 1e3);
  out.metric("load.late_p50_ms", median(late_ms), "ms");
  out.metric("load.late_max_ms", percentile(late_ms, 1.0), "ms");

  daemon.reset();
  if (!args.trace_dir.empty()) {
    tracer.write(args.trace_dir + "/daemon_mixed-seed" +
                 std::to_string(args.seed) + ".json");
  }
  return out;
}

}  // namespace perfbench
