// The serving workloads: a single-process load generator speaking the wire
// protocol to a loopback NetServer.
//
// One sender thread and one poll() receiver thread share 2 connections.  The
// sender encodes with serve::encode_request and sends with write_frame; the
// receiver reads with read_frame and decodes with decode_response, so both
// ends of every request are stamped by the client itself.  Every request has
// a preallocated record: the sender fills its half and publishes it (release
// store of the sent count) before the frame goes out; the receiver fills the
// response half.  Statistics are read only after both threads have joined.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "models.hpp"
#include "nn/network.hpp"
#include "serve/load_generator.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kConnections = 2;
constexpr int kInputsPerModel = 64;
constexpr int kFastProfileBatch = 8;
constexpr int kFastProfileReps = 15;
// How long the receiver waits for outstanding responses once the sender has
// finished; anything still missing then counts as failed.
constexpr double kDrainSeconds = 10.0;
// A failed request's latency: over any limit, so it pushes the percentiles
// up instead of vanishing from them.
constexpr double kFailedLatencyMs = 1e9;
// Request records live in a ring of this many slots; the sender reuses a
// slot only once its response is in (a wait that shows as generator
// lateness).  16 s of backlog at 1000 rps.
constexpr std::size_t kRing = std::size_t{1} << 14;
// Closed loop: the most requests sent per second of run.  It sizes the
// sample storage up front, so the harness's memory does not grow with the
// server's goodput; the sender stops at the ceiling.
constexpr double kMaxClosedLoopRps = 25000.0;
// The server's CPU time per image is sampled in windows of this length.
constexpr auto kCpuWindow = std::chrono::milliseconds(500);

struct Traffic {
  bool open_loop = true;
  double rate_rps = 0.0;     // open loop
  int inflight_per_conn = 0;  // closed loop
  std::vector<double> mix;    // per served model, sums to 1
};

// One request.  The sender initializes the record (done/match false) and
// writes id, due, send_begin, encoded, sent, model and input; the receiver
// writes everything else, `done` last.
struct Req {
  std::int64_t id;
  std::int64_t due_ns;
  std::int64_t send_begin_ns;
  std::int64_t encoded_ns;
  std::int64_t sent_ns;
  std::int64_t read_begin_ns;
  std::int64_t read_ns;
  std::int64_t decoded_ns;
  std::int32_t queued_us;
  std::int32_t batch_us;
  std::int32_t exec_us;
  std::int32_t batch_size;
  std::uint8_t model;
  std::uint8_t status;
  std::uint16_t input;
  bool done;
  bool match;
};

// Deterministic (model, input) of request i: a hash of the seed and the
// index, so the sequence needs no storage and no thread hand-off.
std::pair<int, int> pick(std::uint64_t seed, std::uint64_t i,
                         const std::vector<double>& mix) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  int model = 0;
  double cum = mix[0];
  while (u >= cum && model + 1 < static_cast<int>(mix.size()))
    cum += mix[++model];
  return {model, static_cast<int>((z & 0xffff) % kInputsPerModel)};
}

// A loopback TCP connection to the NetServer, shut down and closed on
// destruction.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the NetServer failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

// Statistics of one phase, folded in request by request as responses
// arrive (and, after the drain, for the requests that never got one).
// Only requests due after the warm-up are measured; every request counts
// towards attempted and failed.  The per-layer series are kept in traced
// phases only.
struct PhaseStats {
  Samples latency_ms;
  Samples gen_late_us;
  Samples frontend_us, encode_us, decode_us;
  Samples queued_us, dispatch_us, exec_us, per_image_us;
  double batches = 0.0, full_batches = 0.0;
  std::int64_t attempted = 0, measured = 0, ok = 0;
  std::int64_t status_ok = 0;  // kOk responses, measured or not
  std::map<std::string, std::int64_t> fails;
  std::uint64_t cycles = 0, cycle_abs_err = 0;
  std::int64_t last_read_ns = 0;

  // Measured span: from the end of the warm-up to the last good response.
  double span_s(std::int64_t warm_ns) const {
    return static_cast<double>(std::max(last_read_ns, warm_ns) - warm_ns) /
           1e9;
  }
};

void fold(const Req& r, std::int64_t warm_ns,
          const std::vector<ServedModel>& models, int max_batch, bool trace,
          PhaseStats& s) {
  ++s.attempted;
  const bool status_ok =
      r.done && r.status == static_cast<std::uint8_t>(serve::Status::kOk);
  if (status_ok) ++s.status_ok;
  if (!r.done)
    ++s.fails["missing"];
  else if (!status_ok)
    ++s.fails[serve::status_name(static_cast<serve::Status>(r.status))];
  else if (!r.match)
    ++s.fails["wrong_output"];
  if (r.due_ns < warm_ns) return;
  ++s.measured;
  if (!status_ok || !r.match) {
    s.latency_ms.add(kFailedLatencyMs);
    return;
  }
  ++s.ok;
  s.last_read_ns = std::max(s.last_read_ns, r.read_ns);
  s.latency_ms.add(static_cast<double>(r.read_ns - r.due_ns) / 1e6);
  s.gen_late_us.add(static_cast<double>(r.send_begin_ns - r.due_ns) / 1e3);
  s.cycles += models[r.model].profile.cycles;
  s.cycle_abs_err += models[r.model].profile.abs_err;
  if (!trace) return;
  const double server_us = r.queued_us + r.batch_us + r.exec_us;
  s.frontend_us.add(static_cast<double>(r.read_ns - r.sent_ns) / 1e3 -
                    server_us);
  s.encode_us.add(static_cast<double>(r.encoded_ns - r.send_begin_ns) / 1e3);
  s.decode_us.add(static_cast<double>(r.decoded_ns - r.read_ns) / 1e3);
  s.queued_us.add(r.queued_us);
  s.dispatch_us.add(r.batch_us);
  s.exec_us.add(r.exec_us);
  s.per_image_us.add(static_cast<double>(r.exec_us) / r.batch_size);
  // Every member of a batch reports its size, so a batch of n contributes
  // n/n = 1 to the batch count.
  s.batches += 1.0 / r.batch_size;
  if (r.batch_size == max_batch) s.full_batches += 1.0 / r.batch_size;
}

// One measured pass of traffic against a running server.
struct Phase {
  PhaseStats stats;
  std::vector<Req> log;  // traced phases: every request, in send order
  std::int64_t sent = 0;
  std::int64_t warm_ns = 0;  // requests due before this are warm-up
  Clock::time_point start;
  // The server's CPU time per OK response, ms, one sample per full window
  // from the end of the warm-up while the sender runs; and the totals over
  // those windows.
  Samples cpu_ms_per_image;
  double window_cpu_s = 0.0;
  std::int64_t window_images = 0;
  std::string error;  // connection-level failure, if any
};

Phase run_phase(std::uint16_t port, const std::vector<ServedModel>& models,
                const Traffic& traffic, std::uint64_t seed, double seconds,
                double warmup_s, int max_batch, bool trace) {
  Phase ph;
  const double total_s = warmup_s + seconds;
  ph.warm_ns = static_cast<std::int64_t>(warmup_s * 1e9);
  const auto total_ns = static_cast<std::int64_t>(total_s * 1e9);

  // Open loop: the whole Poisson schedule up front.  Closed loop: a fixed
  // ceiling on the number of requests.
  std::vector<std::int64_t> due;
  std::int64_t capacity = 0;
  if (traffic.open_loop) {
    const int n = static_cast<int>(std::ceil(traffic.rate_rps * total_s * 1.5)) + 64;
    for (const std::int64_t us : serve::poisson_arrivals_us(
             seed ^ 0x5eedf00dull, n, traffic.rate_rps)) {
      if (us >= total_ns / 1000) break;
      due.push_back(us * 1000);
    }
    capacity = static_cast<std::int64_t>(due.size());
  } else {
    capacity = static_cast<std::int64_t>(kMaxClosedLoopRps * total_s);
  }
  if (!trace) {
    const auto n = static_cast<std::size_t>(capacity);
    ph.stats.latency_ms.reserve_resident(n);
    ph.stats.gen_late_us.reserve_resident(n);
  }
  // Untraced phases fold each request into the stats as its response
  // arrives and reuse its record.  Traced phases keep every record and fold
  // them after the join: their stats read times the sender writes after
  // the response may already be in.  Value-initialized, so the whole ring
  // is resident before the first send.
  const std::size_t ring_size =
      trace ? std::max<std::size_t>(static_cast<std::size_t>(capacity), 1)
            : kRing;
  std::unique_ptr<Req[]> ring(new Req[ring_size]());
  const auto slot = [&](std::int64_t i) -> Req& {
    return ring[static_cast<std::size_t>(i) % ring_size];
  };
  std::vector<bool> seen(static_cast<std::size_t>(capacity));  // receiver

  const Connection conn0(port);
  const Connection conn1(port);
  const int fds[kConnections] = {conn0.fd(), conn1.fd()};

  std::vector<std::string> ids;
  for (const ServedModel& m : models) ids.push_back(m.id);

  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> ok_responses{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> abort{false};  // the receiver failed: stop sending
  std::mutex credit_m;
  std::condition_variable credit_cv;
  int inflight[kConnections] = {0, 0};
  std::string sender_error;
  std::string receiver_error;

  ph.start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point start = ph.start;

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not +50 us
    std::vector<std::uint8_t> scratch;
    serve::SubmitOptions sopts;
    try {
      for (std::int64_t i = 0; i < capacity; ++i) {
        if (abort.load(std::memory_order_relaxed)) break;
        int conn = static_cast<int>(i % kConnections);
        if (traffic.open_loop) {
          std::this_thread::sleep_until(start +
                                        std::chrono::nanoseconds(due[i]));
        } else {
          if (ns_since(start, Clock::now()) >= total_ns) break;
          std::unique_lock<std::mutex> lock(credit_m);
          credit_cv.wait(lock, [&] {
            return abort.load(std::memory_order_relaxed) ||
                   inflight[0] < traffic.inflight_per_conn ||
                   inflight[1] < traffic.inflight_per_conn;
          });
          if (abort.load(std::memory_order_relaxed)) break;
          conn = inflight[0] <= inflight[1] ? 0 : 1;
          ++inflight[conn];
        }
        Req& r = slot(i);
        if (i >= static_cast<std::int64_t>(ring_size)) {
          // The slot's previous request has no response yet.  One that
          // stays missing past the drain time ends the phase; the final
          // scan counts it as missing.
          const auto give_up = Clock::now() + std::chrono::milliseconds(
                                                  static_cast<int>(kDrainSeconds * 1000));
          while (!std::atomic_ref<bool>(r.done).load(std::memory_order_acquire) &&
                 !abort.load(std::memory_order_relaxed) &&
                 Clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          if (!std::atomic_ref<bool>(r.done).load(std::memory_order_acquire))
            break;
        }
        r.id = i;
        r.done = false;
        r.match = false;
        const auto [model, input] = pick(seed, static_cast<std::uint64_t>(i),
                                         traffic.mix);
        r.model = static_cast<std::uint8_t>(model);
        r.input = static_cast<std::uint16_t>(input);
        const auto t0 = Clock::now();
        r.send_begin_ns = ns_since(start, t0);
        r.due_ns = traffic.open_loop ? due[i] : r.send_begin_ns;
        sopts.model_id = ids[model];
        const std::vector<std::uint8_t> payload = serve::encode_request(
            static_cast<std::uint64_t>(i), sopts,
            models[model].inputs[input]);
        if (trace) r.encoded_ns = ns_since(start, Clock::now());
        // Published before the frame goes out, so the response can never
        // arrive ahead of its record.
        sent.store(i + 1, std::memory_order_release);
        serve::write_frame(fds[conn], serve::MsgType::kRequest, payload,
                           scratch);
        // The response may be in already; sent_ns is read only after both
        // threads have joined (traced phases).
        r.sent_ns = ns_since(start, Clock::now());
      }
    } catch (const std::exception& e) {
      sender_error = e.what();
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::thread receiver([&] {
    pollfd pfds[kConnections];
    for (int c = 0; c < kConnections; ++c) pfds[c] = {fds[c], POLLIN, 0};
    serve::Frame frame;
    std::int64_t received = 0;
    Clock::time_point drain_deadline{};
    try {
      for (;;) {
        if (sender_done.load(std::memory_order_acquire)) {
          if (received == sent.load(std::memory_order_acquire)) break;
          if (drain_deadline == Clock::time_point{})
            drain_deadline =
                Clock::now() + std::chrono::milliseconds(
                                   static_cast<int>(kDrainSeconds * 1000));
          else if (Clock::now() > drain_deadline)
            break;
        }
        if (::poll(pfds, kConnections, 20) < 0 && errno != EINTR)
          throw std::runtime_error("poll() failed");
        for (int c = 0; c < kConnections; ++c) {
          if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          const auto t_begin = Clock::now();
          if (!serve::read_frame(fds[c], frame))
            throw std::runtime_error("server closed a connection");
          const auto t_read = Clock::now();
          if (frame.type != serve::MsgType::kResponse)
            throw std::runtime_error("unexpected frame type from server");
          const serve::WireResponse wr = serve::decode_response(frame.payload);
          const auto t_decoded = Clock::now();
          const auto id = static_cast<std::int64_t>(wr.wire_id);
          if (id >= sent.load(std::memory_order_acquire) ||
              seen[static_cast<std::size_t>(id)])
            throw std::runtime_error("response for an unknown wire id");
          seen[static_cast<std::size_t>(id)] = true;
          Req& r = slot(id);
          r.read_begin_ns = ns_since(start, t_begin);
          r.read_ns = ns_since(start, t_read);
          r.decoded_ns = ns_since(start, t_decoded);
          const serve::Response& resp = wr.response;
          r.status = static_cast<std::uint8_t>(resp.status);
          r.queued_us = static_cast<std::int32_t>(resp.latency.queued_us);
          r.batch_us = static_cast<std::int32_t>(resp.latency.batch_us);
          r.exec_us = static_cast<std::int32_t>(resp.latency.exec_us);
          r.batch_size = resp.batch_size;
          if (resp.ok()) ok_responses.fetch_add(1, std::memory_order_relaxed);
          r.match = resp.ok() &&
                    output_of(resp) == models[r.model].refs[r.input];
          if (!trace) {
            // Folded from a copy: once `done` is set the sender may reuse
            // the record.
            Req done = r;
            done.done = true;
            fold(done, ph.warm_ns, models, max_batch, false, ph.stats);
          }
          std::atomic_ref<bool>(r.done).store(true, std::memory_order_release);
          ++received;
          if (!traffic.open_loop) {
            {
              std::lock_guard<std::mutex> lock(credit_m);
              --inflight[c];
            }
            credit_cv.notify_one();
          }
        }
      }
    } catch (const std::exception& e) {
      receiver_error = e.what();
      {
        std::lock_guard<std::mutex> lock(credit_m);
        abort.store(true);
      }
      credit_cv.notify_one();
    }
  });

  // The server's CPU time: the whole process's, less the sender's, the
  // receiver's and this thread's.  False once a generator thread has ended.
  clockid_t client_clocks[2];
  pthread_getcpuclockid(sender.native_handle(), &client_clocks[0]);
  pthread_getcpuclockid(receiver.native_handle(), &client_clocks[1]);
  const auto server_cpu_ns = [&](std::int64_t& out) {
    const std::int64_t sender_ns = cpu_ns(client_clocks[0]);
    const std::int64_t receiver_ns = cpu_ns(client_clocks[1]);
    if (sender_ns < 0 || receiver_ns < 0) return false;
    out = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - sender_ns - receiver_ns -
          cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    return true;
  };
  Clock::time_point window_end = start + std::chrono::nanoseconds(ph.warm_ns);
  std::this_thread::sleep_until(window_end);
  std::int64_t cpu0 = 0;
  std::int64_t ok0 = ok_responses.load(std::memory_order_relaxed);
  bool sampling = server_cpu_ns(cpu0);
  while (sampling) {
    window_end += kCpuWindow;
    std::this_thread::sleep_until(window_end);
    if (sender_done.load(std::memory_order_acquire)) break;
    std::int64_t cpu1 = 0;
    const std::int64_t ok1 = ok_responses.load(std::memory_order_relaxed);
    sampling = server_cpu_ns(cpu1);
    if (!sampling || ok1 == ok0) continue;
    ph.cpu_ms_per_image.add(static_cast<double>(cpu1 - cpu0) / 1e6 /
                            static_cast<double>(ok1 - ok0));
    ph.window_cpu_s += static_cast<double>(cpu1 - cpu0) / 1e9;
    ph.window_images += ok1 - ok0;
    cpu0 = cpu1;
    ok0 = ok1;
  }

  sender.join();
  receiver.join();
  ph.sent = sent.load();
  // Fold what is left: every record of a traced phase, the requests still
  // without a response in an untraced one (older records all have one: the
  // sender waited for it before reusing theirs).
  const std::int64_t first =
      trace ? 0
            : std::max<std::int64_t>(
                  0, ph.sent - static_cast<std::int64_t>(ring_size));
  for (std::int64_t i = first; i < ph.sent; ++i) {
    Req& r = slot(i);
    if (!trace && r.done) continue;
    if (!r.done) r.match = false;
    fold(r, ph.warm_ns, models, max_batch, trace, ph.stats);
    if (trace) ph.log.push_back(r);
  }
  ph.error = !sender_error.empty() ? sender_error : receiver_error;
  return ph;
}

// Spans of one traced phase: per request, encode+send, wait, read+decode,
// with the server-reported phases attached to the wait span.  Only the
// first kMaxTracedRequests requests get spans, which keeps the trace file
// near 12 MB (a whole closed-loop phase wrote 70 MB); the per-layer
// metrics use every request.
void record_spans(const Phase& ph, SpanLog& log) {
  constexpr std::size_t kMaxTracedRequests = 20000;
  const std::int64_t offset_us = ns_since(log.epoch(), ph.start) / 1000;
  for (std::size_t i = 0; i < std::min(ph.log.size(), kMaxTracedRequests); ++i) {
    const Req& r = ph.log[i];
    const auto add = [&](const char* track, const char* name,
                         std::int64_t a_ns, std::int64_t b_ns,
                         std::vector<std::pair<std::string, std::int64_t>>
                             args) {
      Span sp;
      sp.track = track;
      sp.name = name;
      sp.cat = "request";
      sp.ts_us = offset_us + a_ns / 1000;
      sp.dur_us = (b_ns - a_ns) / 1000;
      sp.req = r.id;
      sp.args = std::move(args);
      log.add(std::move(sp));
    };
    add("client/sender", "encode", r.send_begin_ns, r.encoded_ns,
        {{"model", r.model}});
    add("client/sender", "send", r.encoded_ns, r.sent_ns, {});
    if (!r.done) continue;
    add("client/wait", "server", r.sent_ns, r.read_begin_ns,
        {{"queued_us", r.queued_us},
         {"batch_us", r.batch_us},
         {"exec_us", r.exec_us},
         {"batch_size", r.batch_size},
         {"status", r.status}});
    add("client/receiver", "read", r.read_begin_ns, r.read_ns, {});
    add("client/receiver", "decode", r.read_ns, r.decoded_ns, {});
  }
}

// Fast-path host time per layer kind at batch 8, median over repetitions,
// for one served model (in process, on a private runtime).
void fast_profile(const ServedModel& m, Values& values,
                  std::uint64_t& skipped, std::uint64_t& tiles) {
  LocalRuntime local(m.program->config(), driver::ExecMode::kFast);
  std::vector<nn::FeatureMapI8> batch(m.inputs.begin(),
                                      m.inputs.begin() + kFastProfileBatch);
  local.runtime().run_network_batch(*m.program, batch);  // warm
  std::map<std::string, Samples> by_kind;
  Samples total_us;
  double macs = 0.0;
  for (int rep = 0; rep < kFastProfileReps; ++rep) {
    const driver::BatchNetworkRun run =
        local.runtime().run_network_batch(*m.program, batch);
    std::map<std::string, double> kind_us;
    double sum = 0.0;
    macs = 0.0;
    for (const driver::LayerRun& l : run.layers) {
      kind_us[nn::layer_kind_name(l.kind)] +=
          static_cast<double>(l.host_wall_us);
      sum += static_cast<double>(l.host_wall_us);
      macs += static_cast<double>(l.macs);
      if (rep == 0) {
        skipped += l.fast.mac_tiles_skipped;
        tiles += l.fast.mac_tiles;
      }
    }
    for (const auto& [kind, us] : kind_us) by_kind[kind].add(us);
    total_us.add(sum);
  }
  for (auto& [kind, s] : by_kind)
    if (kind != "pad" && kind != "softmax" && kind != "flatten")
      values["layer." + m.id + "." + kind + ".host_us"] = s.percentile(500);
  const double us = total_us.percentile(500);
  values["layer." + m.id + ".gmacs_per_s"] = us > 0 ? macs / us / 1e3 : 0.0;
}

std::uint64_t counter(serve::Server& server, const char* name) {
  return server.metrics().counter(name).value();
}

// `cycle_profile`: the traced run also profiles the cycle engine.
Result run_wire(const RunOptions& opts, const std::vector<Recipe>& recipes,
                const Traffic& traffic, bool cycle_profile) {
  Result result;
  const Clock::time_point epoch = Clock::now();
  SpanLog spans(epoch);
  SpanLog* setup_spans = opts.trace ? &spans : nullptr;

  SetupTimes setup;
  std::unique_ptr<ServingStack> stack = repeated_cold_start<ServingStack>(
      setup, [&](int i, SetupTimes& t) {
        return cold_start_serving(recipes,
                                  opts.out_dir + "/cache-" + opts.workload +
                                      "-" + std::to_string(i),
                                  t, setup_spans);
      });

  std::vector<driver::ProgramHandle> handles;
  std::vector<ServedModel> models;
  for (const Recipe& r : recipes) {
    handles.push_back(stack->registry->acquire(r.id));
    models.push_back(make_served_model(r.id, handles.back().program(),
                                       kInputsPerModel, opts.seed));
  }
  const int max_batch = serving_options().batch.max_batch;
  const double warmup_s = std::min(1.0, 0.1 * opts.seconds);
  serve::Server& server = *stack->server;

  Values e2e;
  Values layer;
  std::int64_t client_ok = 0;
  const auto count = [&](const Phase& ph) {
    if (!ph.error.empty()) {
      std::printf("connection failure: %s\n", ph.error.c_str());
      result.correct = false;
    }
    result.attempted += ph.stats.attempted;
    for (const auto& [reason, n] : ph.stats.fails) result.fail(reason, n);
    client_ok += ph.stats.status_ok;
  };
  if (!opts.trace) {
    Phase ph = run_phase(stack->net->port(), models, traffic, opts.seed,
                         opts.seconds, warmup_s, max_batch, false);
    // Before any statistics are computed; the harness's own storage is
    // fixed by the rate and the run length, not by the goodput.
    e2e["peak_rss_mb"] = peak_rss_mb();
    count(ph);
    PhaseStats& s = ph.stats;
    // The server's CPU time over the images served, summed over every full
    // window: a whole-run mean, which moves smoothly with the share of time
    // the host runs slow, where a median over windows jumps.
    e2e["cpu_ms_per_image"] =
        ph.window_images > 0
            ? 1e3 * ph.window_cpu_s / static_cast<double>(ph.window_images)
            : 0.0;
    const double span_s = s.span_s(ph.warm_ns);
    e2e["sim_cycles_per_image"] =
        s.ok > 0 ? static_cast<double>(s.cycles) / s.ok : 0.0;
    e2e["model_err_pct"] =
        s.cycles > 0 ? 100.0 * s.cycle_abs_err / static_cast<double>(s.cycles)
                     : 0.0;
    // Wall-clock figures: printed, not gated (see README.md).
    std::printf("latency: %zu measured requests, whole-run p50 %.4f p75 %.4f "
                "p90 %.4f p95 %.4f p99 %.4f p99.9 %.4f ms (%zu beyond p99); "
                "generator lateness p99 %.1f us\n",
                s.latency_ms.size(), s.latency_ms.percentile(500),
                s.latency_ms.percentile(750), s.latency_ms.percentile(900),
                s.latency_ms.percentile(950),
                s.latency_ms.percentile(990), s.latency_ms.percentile(999),
                s.latency_ms.beyond(990),
                s.gen_late_us.percentile(990));
    std::printf("goodput: %.1f good responses/s over %.3f s; server CPU "
                "%.3f s over %zu windows of %lld ms, per image per window "
                "p25 %.4f p75 %.4f ms\n",
                span_s > 0 ? static_cast<double>(s.ok) / span_s : 0.0, span_s,
                ph.window_cpu_s, ph.cpu_ms_per_image.size(),
                static_cast<long long>(kCpuWindow.count()),
                ph.cpu_ms_per_image.percentile(250),
                ph.cpu_ms_per_image.percentile(750));
  } else {
    // Untraced half, then traced half on the same warm server; the
    // difference in median latency is the tracing overhead.
    const double half = opts.seconds / 2.0;
    Phase plain = run_phase(stack->net->port(), models, traffic, opts.seed,
                            half, warmup_s, max_batch, false);
    count(plain);
    const std::uint64_t restage0 = counter(server, "serve.model_restage");
    const std::uint64_t batches0 = counter(server, "serve.batches");
    Phase traced = run_phase(stack->net->port(), models, traffic, opts.seed,
                             half, warmup_s, max_batch, true);
    const double restages =
        static_cast<double>(counter(server, "serve.model_restage") - restage0);
    const double batches =
        static_cast<double>(counter(server, "serve.batches") - batches0);
    count(traced);
    PhaseStats& s = traced.stats;
    record_spans(traced, spans);

    layer["net.frontend_us.p50"] = s.frontend_us.percentile(500);
    layer["net.frontend_us.p99"] = s.frontend_us.percentile(990);
    layer["protocol.encode_request_us"] = s.encode_us.percentile(500);
    layer["protocol.decode_response_us"] = s.decode_us.percentile(500);
    layer["sched.queued_us.p50"] = s.queued_us.percentile(500);
    layer["sched.queued_us.p99"] = s.queued_us.percentile(990);
    layer["sched.dispatch_us.p50"] = s.dispatch_us.percentile(500);
    layer["sched.batch_size.mean"] = s.batches > 0 ? s.ok / s.batches : 0.0;
    layer["sched.batch_full_frac"] =
        s.batches > 0 ? s.full_batches / s.batches : 0.0;
    layer["exec.batch_us.p50"] = s.exec_us.percentile(500);
    layer["exec.batch_us.p99"] = s.exec_us.percentile(990);
    layer["exec.per_image_us.p50"] = s.per_image_us.percentile(500);
    layer["registry.restages"] = restages;
    layer["registry.restage_frac"] = batches > 0 ? restages / batches : 0.0;
    layer["bench.gen_late_us.p99"] = s.gen_late_us.percentile(990);
    const double plain_p50 = plain.stats.latency_ms.percentile(500);
    layer["bench.trace_overhead_pct"] =
        plain_p50 > 0
            ? 100.0 * (s.latency_ms.percentile(500) - plain_p50) / plain_p50
            : 0.0;
    std::uint64_t skipped = 0, tiles = 0;
    for (const ServedModel& m : models) fast_profile(m, layer, skipped, tiles);
    layer["core.act_skip_frac"] =
        tiles > 0 ? static_cast<double>(skipped) / static_cast<double>(tiles)
                  : 0.0;
    std::printf("traced phase: %lld measured requests, %.1f batches, "
                "restages %.0f, frontend p50 %.1f us\n",
                static_cast<long long>(s.measured), s.batches, restages,
                s.frontend_us.percentile(500));
  }

  // Reconcile the client's view with the server's counters:
  // submitted = ok + rejected + shed/late + cancelled + error.
  stack->net->stop();
  server.stop();
  const std::uint64_t submitted = counter(server, "serve.submitted");
  const std::uint64_t ok = counter(server, "serve.completed");
  const std::uint64_t rejected = counter(server, "serve.rejected_queue_full") +
                                 counter(server, "serve.rejected_shutdown") +
                                 counter(server, "serve.rejected_quota") +
                                 counter(server, "serve.rejected_unknown_model");
  const std::uint64_t missed = counter(server, "serve.deadline_missed");
  const std::uint64_t cancelled = counter(server, "serve.cancelled");
  const std::uint64_t errors = counter(server, "serve.exec_errors");
  const bool reconciled =
      submitted == ok + rejected + missed + cancelled + errors &&
      submitted == static_cast<std::uint64_t>(result.attempted) &&
      ok == static_cast<std::uint64_t>(client_ok);
  std::printf("reconcile: client sent=%lld ok=%lld | server submitted=%llu "
              "ok=%llu rejected=%llu shed_or_late=%llu cancelled=%llu "
              "error=%llu -> %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(client_ok),
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(missed),
              static_cast<unsigned long long>(cancelled),
              static_cast<unsigned long long>(errors),
              reconciled ? "ok" : "MISMATCH");
  if (!reconciled) {
    result.correct = false;
    result.fail("reconcile");
  }

  e2e["setup_s"] = setup.total_s;
  layer["quant.quantize_ms"] = setup.quantize_ms;
  layer["driver.compile_ms"] = setup.compile_ms;
  layer["driver.cache_store_ms"] = setup.store_ms;
  layer["driver.cache_load_ms"] = setup.load_ms;
  layer["serve.start_ms"] = setup.start_ms;
  if (opts.trace) {
    // After the reconciliation, which counts wire requests only.
    if (cycle_profile)
      run_cycle_profile(opts, opts.seconds / 3.0, result, layer, spans);
    result.layer = layer_metrics(layer);
    if (!spans.write_chrome(opts.out_dir, opts.workload, opts.seed))
      result.correct = false;
  } else {
    result.e2e = e2e_metrics(e2e);
  }
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace

Result run_wire_poisson(const RunOptions& opts, double rate_rps) {
  const std::vector<Recipe> recipes = {vgg_recipe("vgg", 16)};
  return run_wire(opts, recipes,
                  Traffic{.open_loop = true, .rate_rps = rate_rps, .mix = {1.0}},
                  true);
}

Result run_wire_zoo_closed(const RunOptions& opts) {
  const std::vector<Recipe> recipes = {vgg_recipe("vgg", 16), mobile_recipe(),
                                       residual_recipe()};
  return run_wire(opts, recipes,
                  Traffic{.open_loop = false,
                          .inflight_per_conn = 8,
                          .mix = {0.5, 0.25, 0.25}},
                  false);
}

}  // namespace perfbench
