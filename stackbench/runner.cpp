// One benchmark run: set-up, timed closed loop, check pass, invariants.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/catalog.h"
#include "core/license.h"
#include "net/sim_client.h"
#include "obs/trace.h"
#include "server/delivery_service.h"
#include "sim/thread_pool.h"
#include "stackbench.h"

namespace stackbench {

namespace {

using jhdl::Json;
using jhdl::net::ConnectSpec;
using jhdl::net::SimClient;
using jhdl::obs::ScopedSpan;
using jhdl::obs::Tracer;
using jhdl::server::DeliveryConfig;
using jhdl::server::DeliveryService;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

struct Usage {
  double cpu_s = 0;  ///< user + sys, every thread of the process
  long nvcsw = 0;    ///< voluntary context switches
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw};
}

/// Host-wide CPU time split from /proc/stat (jiffies).
struct HostTimes {
  std::uint64_t total = 0, idle = 0, steal = 0;
};

HostTimes host_times() {
  HostTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (in >> cpu && cpu == "cpu") {
    for (auto& x : v) in >> x;
  }
  // user nice system idle iowait irq softirq steal
  for (auto x : v) t.total += x;
  t.idle = v[3] + v[4];
  t.steal = v[7];
  return t;
}

/// A /proc/self/status field in KiB ("VmRSS", "VmHWM").
double status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return 0;
}

/// Gives the heap memory that building the pool freed back to the system
/// and restarts VmHWM from the current RSS, so that the pool's own peak
/// stays out of rss_mb.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string tenant(std::size_t client) {
  return "tenant-" + std::to_string(client);
}

constexpr const char* kSetupTenant = "setup";

ConnectSpec spec_for(std::size_t config, std::string customer,
                     std::uint64_t trace, Tracer* tracer) {
  ConnectSpec spec;
  spec.customer = std::move(customer);
  spec.module = roster()[config].module;
  spec.params = roster()[config].params;
  spec.trace_id = trace;
  spec.tracer = tracer;
  return spec;
}

/// Everything a client thread shares with the main thread.
struct Shared {
  const Pool* pool = nullptr;
  std::uint64_t seed = 0;
  std::uint16_t port = 0;
  Tracer* bench_tracer = nullptr;
  Tracer* client_tracer = nullptr;
};

/// A client's cursor into its stream and its pre-opened session; lives
/// across segments.
struct ClientState {
  std::size_t cursor = 0;
  std::uint64_t wraps = 0;
  std::uint64_t ops_done = 0;  ///< numbers session-open trace ids
  std::unique_ptr<SimClient> session;
  std::uint64_t session_trace = 0;
  /// Latencies of the current segment's ok ops. Sized and touched before
  /// the RSS baseline, so the benchmark's own samples do not count.
  std::vector<double> latency_us;
};

/// What one client measured in one segment (latencies go to
/// ClientState::latency_us).
struct ClientRun {
  std::vector<TracedOp> ops;  ///< ok ops, kept in traced segments
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cpu_s = 0;
  Clock::time_point last_done;
};

std::unique_ptr<SimClient> open_session(const Shared& sh, std::size_t client,
                                        std::uint64_t trace) {
  const Stream& st = sh.pool->streams[client];
  return std::make_unique<SimClient>(
      sh.port, spec_for(st.config, tenant(client), trace, sh.client_tracer));
}

/// Runs op `index` of `client`'s stream. Returns whether every reply was
/// right; `latency_us` is the time of the timed call(s).
bool run_op(const Shared& sh, std::size_t client, ClientState& cs,
            std::size_t index, std::uint64_t trace, double& latency_us) {
  const Stream& st = sh.pool->streams[client];
  Clock::time_point t0, t1;
  bool ok = true;
  switch (sh.pool->workload) {
    case Workload::CosimEval: {
      const std::uint16_t x = st.eval_inputs[index];
      const Values in{{"multiplicand", BitVector::from_uint(16, x)}};
      Values got;
      t0 = Clock::now();
      {
        ScopedSpan span(*sh.bench_tracer, "op.eval", trace);
        got = cs.session->eval(in, 1);
      }
      t1 = Clock::now();
      ok = outputs_match(layout(kR1), sh.pool->r1_products[x], got);
      break;
    }
    case Workload::SessionOpen: {
      std::unique_ptr<SimClient> session;
      t0 = Clock::now();
      {
        ScopedSpan span(*sh.bench_tracer, "op.open", trace);
        session = open_session(sh, client, trace);
      }
      t1 = Clock::now();
      const Layout& lay = layout(st.config);
      for (std::size_t k = 0; k < kOpenEvals; ++k) {
        const std::size_t i = index * kOpenEvals + k;
        ok = outputs_match(lay, st.open_outputs[i],
                           session->eval(unpack_inputs(lay, st.open_inputs[i]),
                                         1)) &&
             ok;
      }
      session->bye();
      break;
    }
    case Workload::BatchSweep: {
      const BatchOp& op = st.batch_ops[index];
      const Series cycles = op.stream(false);
      const Series patterns = op.stream(true);
      Series got_cycles, got_patterns;
      t0 = Clock::now();
      {
        ScopedSpan span(*sh.bench_tracer, "op.batch", trace);
        got_cycles = cs.session->cycle_batch(kBatchCycles, cycles);
        got_patterns = cs.session->pattern_batch(patterns, kPatternCycles);
      }
      t1 = Clock::now();
      ok = batch_matches(got_cycles, kBatchCycles, op.cycle_digest) &&
           batch_matches(got_patterns, kPatterns, op.pattern_digest);
      break;
    }
  }
  latency_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return ok;
}

/// The closed loop of one client until `deadline`.
/// `deadline` is read only after the start barrier, which orders the
/// main thread's write before it.
void client_loop(const Shared& sh, std::size_t client, ClientState& cs,
                 const Clock::time_point& deadline, bool keep_ops,
                 std::barrier<>& start, std::atomic<std::uint64_t>& done,
                 ClientRun& out) {
  const std::size_t depth = sh.pool->streams[client].size();
  cs.latency_us.clear();
  start.arrive_and_wait();
  const double cpu0 = thread_cpu_s();
  while (Clock::now() < deadline) {
    const std::size_t index = cs.cursor;
    if (++cs.cursor == depth) {
      cs.cursor = 0;
      ++cs.wraps;
    }
    const std::uint64_t trace =
        sh.pool->workload == Workload::SessionOpen
            ? trace_id(sh.seed, client, ++cs.ops_done)
            : cs.session_trace;
    ++out.attempted;
    double latency = 0;
    const bool ok =
        (sh.pool->workload == Workload::SessionOpen || cs.session) &&
        checked([&] { return run_op(sh, client, cs, index, trace, latency); });
    if (ok) {
      done.fetch_add(1, std::memory_order_relaxed);
      cs.latency_us.push_back(latency);
      if (keep_ops) out.ops.push_back({client, index, latency, trace});
    } else {
      ++out.failed;
      if (sh.pool->workload != Workload::SessionOpen) {
        // The session's state is unknown after a failure: start afresh.
        try {
          cs.session = open_session(sh, client, cs.session_trace);
        } catch (const std::exception&) {
          cs.session.reset();
        }
      }
    }
    out.last_done = Clock::now();
  }
  out.cpu_s = thread_cpu_s() - cpu0;
}

/// One timed segment over every client.
struct Segment {
  double wall_s = 0;
  double cpu_s = 0;
  double client_cpu_s = 0;
  long nvcsw = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  HostTimes host0, host1;
  double hwm_kib = 0;  ///< VmHWM when the segment's clients finished
  std::vector<double> latency_us;
  std::vector<TracedOp> ops;
  /// Per-window figures: completed ops, process CPU, host steal.
  struct Window {
    double ops = 0, cpu_s = 0, steal_pct = 0;
  };
  std::vector<Window> windows;

  std::uint64_t completed() const { return attempted - failed; }
};

Segment run_segment(const Shared& sh, std::vector<ClientState>& clients,
                    double seconds, bool keep_ops) {
  const std::size_t n = clients.size();
  std::vector<ClientRun> runs(n);
  std::barrier<> start(static_cast<std::ptrdiff_t>(n + 1));
  std::atomic<std::uint64_t> done{0};
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      client_loop(sh, c, clients[c], deadline, keep_ops, start, done, runs[c]);
    });
  }
  Segment seg;
  seg.host0 = host_times();
  const Usage u0 = process_usage();
  const Clock::time_point begin = Clock::now();
  deadline = begin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  start.arrive_and_wait();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::min(1.0, seconds / 4)));
  std::uint64_t ops0 = 0;
  Usage w0 = u0;
  HostTimes h0 = seg.host0;
  for (Clock::time_point t = begin + window; t <= deadline; t += window) {
    std::this_thread::sleep_until(t);
    const std::uint64_t ops1 = done.load(std::memory_order_relaxed);
    const Usage w1 = process_usage();
    const HostTimes h1 = host_times();
    const double jiffies = std::max<double>(h1.total - h0.total, 1);
    seg.windows.push_back({static_cast<double>(ops1 - ops0), w1.cpu_s - w0.cpu_s,
                           100.0 * (h1.steal - h0.steal) / jiffies});
    ops0 = ops1;
    w0 = w1;
    h0 = h1;
  }
  for (std::thread& t : threads) t.join();
  const Usage u1 = process_usage();
  seg.host1 = host_times();
  seg.hwm_kib = status_kib("VmHWM");
  Clock::time_point end = begin;
  for (std::size_t c = 0; c < n; ++c) {
    const ClientRun& r = runs[c];
    end = std::max(end, r.last_done);
    seg.attempted += r.attempted;
    seg.failed += r.failed;
    seg.client_cpu_s += r.cpu_s;
    seg.latency_us.insert(seg.latency_us.end(), clients[c].latency_us.begin(),
                          clients[c].latency_us.end());
    seg.ops.insert(seg.ops.end(), r.ops.begin(), r.ops.end());
  }
  seg.wall_s = std::chrono::duration<double>(end - begin).count();
  seg.cpu_s = u1.cpu_s - u0.cpu_s;
  seg.nvcsw = u1.nvcsw - u0.nvcsw;
  return seg;
}

/// Waits until the service has closed every session (Bye is handled
/// asynchronously by its loop).
bool drain(DeliveryService& service) {
  const auto t0 = Clock::now();
  while (service.stats().snapshot().sessions_active != 0) {
    if (seconds_since(t0) > 10) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A started service with its roster built and its sessions pre-opened.
struct Service {
  std::unique_ptr<DeliveryService> service;
  std::vector<ClientState> clients;
};

Service set_up(Shared& sh, std::size_t clients) {
  Service s;
  DeliveryConfig config;
  config.max_sessions = 2 * nproc();
  s.service = std::make_unique<DeliveryService>(jhdl::core::standard_catalog(),
                                                config);
  using jhdl::core::LicensePolicy;
  using jhdl::core::LicenseTier;
  // Tenants 0..clients-1 drive the timed phase; tenant `clients` runs the
  // check pass.
  for (std::size_t c = 0; c <= clients; ++c) {
    s.service->add_license(LicensePolicy::make(tenant(c), LicenseTier::Evaluation));
  }
  s.service->add_license(LicensePolicy::make(kSetupTenant, LicenseTier::Evaluation));
  sh.port = s.service->start();
  // One cold Hello per roster entry, in roster order.
  for (std::size_t r = 0; r < roster().size(); ++r) {
    SimClient cold(sh.port, spec_for(r, kSetupTenant,
                                     trace_id(sh.seed, clients + 1, r),
                                     sh.client_tracer));
    cold.bye();
  }
  // Let the cold sessions' models go before the workload's own are built;
  // otherwise rss_mb depends on which comes first.
  drain(*s.service);
  s.clients.resize(clients);
  if (sh.pool->workload != Workload::SessionOpen) {
    for (std::size_t c = 0; c < clients; ++c) {
      s.clients[c].session_trace = trace_id(sh.seed, c, 0);
      s.clients[c].session = open_session(sh, c, s.clients[c].session_trace);
    }
  }
  return s;
}

void close_sessions(Service& s) {
  for (ClientState& c : s.clients) {
    if (c.session) c.session->bye();
    c.session.reset();
  }
}

std::uint64_t tenant_count(DeliveryService& service, const char* family,
                           const std::string& customer) {
  return service.metrics().counter_family(family, {"customer"}).with({customer}).value();
}

/// Store lookups that avoided a build (hits plus coalesced waits).
std::uint64_t store_hits(DeliveryService& service) {
  const auto st = service.artifacts().stats();
  return st.hits + st.coalesced;
}

/// The check pass: the ops of the last stream, run untimed by one more
/// client on fresh sessions. Its counts depend only on the seed.
Json check_pass(const Shared& sh, DeliveryService& svc, std::size_t clients,
                std::vector<std::string>& problems) {
  const std::uint64_t hits0 = store_hits(svc);
  const std::uint64_t misses0 = svc.artifacts().stats().misses;
  const std::size_t ops = sh.pool->streams[clients].size();
  const bool open_per_op = sh.pool->workload == Workload::SessionOpen;
  ClientState cs;
  if (!open_per_op) {
    checked([&] {
      cs.session = open_session(sh, clients, trace_id(sh.seed, clients, 0));
      return true;
    });
  }
  std::size_t failed = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    double latency = 0;
    const bool ok =
        (open_per_op || cs.session) && checked([&] {
          return run_op(sh, clients, cs, op, trace_id(sh.seed, clients, op + 1),
                        latency);
        });
    if (!ok) ++failed;
  }
  if (cs.session) cs.session->bye();
  if (failed != 0) {
    problems.push_back("check pass: " + std::to_string(failed) + " failed ops");
  }
  if (!drain(svc)) problems.push_back("check pass: sessions did not close");
  const std::string who = tenant(clients);
  const std::uint64_t cycles = tenant_count(svc, "sim.tenant.cycles", who);
  const std::uint64_t evals = tenant_count(svc, "sim.tenant.kernel_evals", who);
  Json exact = Json::object();
  exact.set("ops", ops);
  exact.set("bytes", tenant_count(svc, "net.rx_bytes", who) +
                         tenant_count(svc, "net.tx_bytes", who));
  exact.set("store_hits", store_hits(svc) - hits0);
  exact.set("store_misses", svc.artifacts().stats().misses - misses0);
  exact.set("kernel_evals", evals);
  exact.set("cycles", cycles);
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.6f",
                cycles == 0 ? 0.0 : static_cast<double>(evals) / cycles);
  exact.set("kernel_evals_per_cycle", std::string(ratio));
  return exact;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / whole;
}

/// Merges the three span sources into one Chrome trace file: the
/// service's (pid 1), the client library's (pid 2) and the benchmark's op
/// and replay spans (pid 3).
bool write_trace(const std::string& path, const Tracer& service,
                 const Tracer& client, const Tracer& bench) {
  Json events = Json::array();
  int pid = 1;
  for (const Tracer* t : {&service, &client, &bench}) {
    const Json doc = t->to_chrome_json();
    for (const Json& ev : doc.at("traceEvents").items()) {
      Json copy = ev;
      copy.set("pid", pid);
      events.push(copy);
    }
    ++pid;
  }
  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.dump();
  return static_cast<bool>(out);
}

}  // namespace

Result run(const Options& o) {
  Result res;
  const std::size_t clients = o.clients != 0 ? o.clients : nproc();
  const std::size_t sim_threads = jhdl::resolve_sim_threads(0);
#ifndef __OPTIMIZE__
  res.problems.push_back("unoptimized build: timings are not comparable");
#endif

  // Stimulus and expected replies, before any service exists.
  const auto pool_t0 = Clock::now();
  const Pool pool = make_pool(o.workload, o.seed, clients,
                              pool_ops(o.workload, o.seconds),
                              check_ops(o.workload));
  const double pool_s = seconds_since(pool_t0);

  Tracer bench_tracer(1 << 14);
  Tracer client_tracer(1 << 13);
  Shared sh;
  sh.pool = &pool;
  sh.seed = o.seed;
  sh.bench_tracer = &bench_tracer;
  sh.client_tracer = &client_tracer;

  std::vector<std::vector<double>> latency_buffers(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    latency_buffers[c].resize(pool.streams[c].size());
  }
  reset_peak_rss();
  const double rss_before_kib = status_kib("VmRSS");
  // setup_s is the median CPU time of several set-ups: every thread's
  // user + sys time, which host steal does not inflate the way it does
  // the wall clock (setup_wall_s). The measured service is the first;
  // the others follow once it is done, so that their memory stays out of
  // rss_mb.
  std::vector<double> setup_cpu, setup_wall;
  auto timed_set_up = [&] {
    const double cpu0 = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
    const auto t0 = Clock::now();
    Service s = set_up(sh, clients);
    setup_wall.push_back(seconds_since(t0));
    setup_cpu.push_back(cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    return s;
  };
  Service svc = timed_set_up();
  DeliveryService& service = *svc.service;
  const double setup_hwm_kib = status_kib("VmHWM");
  for (std::size_t c = 0; c < clients; ++c) {
    svc.clients[c].latency_us = std::move(latency_buffers[c]);
  }

  // The timed phase. A traced run alternates untraced and traced
  // segments so drift hits both alike; only traced segments record spans.
  std::vector<Segment> plain, traced;
  if (!o.trace) {
    plain.push_back(run_segment(sh, svc.clients, o.seconds, false));
  } else {
    for (int i = 0; i < 4; ++i) {
      const bool on = i % 2 == 1;
      service.tracer().set_enabled(on);
      client_tracer.set_enabled(on);
      bench_tracer.set_enabled(on);
      (on ? traced : plain)
          .push_back(run_segment(sh, svc.clients, o.seconds / 4, on));
    }
    service.tracer().set_enabled(false);
    client_tracer.set_enabled(false);
  }
  close_sessions(svc);
  std::uint64_t wraps = 0;
  for (const ClientState& c : svc.clients) wraps += c.wraps;

  const Json exact = check_pass(sh, service, clients, res.problems);
  if (!drain(service)) res.problems.push_back("sessions did not close");
  service.stop();
  for (std::size_t k = 1; k < o.setups; ++k) {
    Service extra = timed_set_up();
    close_sessions(extra);
    extra.service->stop();
  }

  // Invariants of the finished run.
  if (wraps != 0) {
    res.problems.push_back(std::to_string(wraps) +
                           " pool wraps: ops repeated earlier stimulus");
  }
  const auto snap = service.stats().snapshot();
  const auto store = service.artifacts().stats();
  if (snap.sessions_opened != snap.sessions_closed) {
    res.problems.push_back("sessions opened " + std::to_string(snap.sessions_opened) +
                           " != closed " + std::to_string(snap.sessions_closed));
  }
  if (store.misses != roster().size() ||
      store.hits + store.coalesced + store.misses != snap.sessions_opened) {
    res.problems.push_back("store hits " + std::to_string(store.hits + store.coalesced) +
                           " / misses " + std::to_string(store.misses) +
                           " do not match " + std::to_string(snap.sessions_opened) +
                           " sessions over a roster of " +
                           std::to_string(roster().size()));
  }
  const std::uint64_t server_failed =
      snap.rejections + snap.malformed_frames + snap.denials;
  if (server_failed != 0) {
    res.problems.push_back("service counted " + std::to_string(server_failed) +
                           " rejections/malformed frames/denials");
  }

  // End-to-end figures come from the untraced segments only.
  Segment all;
  HostTimes host;  // deltas over the untraced segments
  for (const Segment& s : plain) {
    all.wall_s += s.wall_s;
    all.cpu_s += s.cpu_s;
    all.client_cpu_s += s.client_cpu_s;
    all.nvcsw += s.nvcsw;
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    host.total += s.host1.total - s.host0.total;
    host.idle += s.host1.idle - s.host0.idle;
    host.steal += s.host1.steal - s.host0.steal;
  }
  const std::uint64_t done = std::max<std::uint64_t>(all.completed(), 1);
  res.attempted = all.attempted;
  res.failed = all.failed;
  for (const Segment& s : traced) {
    res.attempted += s.attempted;
    res.failed += s.failed;
  }
  if (res.failed != 0) {
    res.problems.push_back(std::to_string(res.failed) + " failed ops");
  }

  const std::size_t n = all.latency_us.size();
  Metrics e2e;
  e2e["setup_s"] = {quantile(setup_cpu, 0.5), "s"};
  e2e["setup_wall_s"] = {quantile(setup_wall, 0.5), "s"};
  e2e["ops_per_s"] = {all.completed() / std::max(all.wall_s, 1e-9), "1/s"};
  e2e["op_p50_us"] = {quantile(all.latency_us, 0.5), "us"};
  if (p99_supported(n)) e2e["op_p99_us"] = {quantile(all.latency_us, 0.99), "us"};
  e2e["cpu_us_per_op"] = {all.cpu_s * 1e6 / done, "us"};
  double hwm_kib = 0;
  for (const Segment& s : plain) hwm_kib = std::max(hwm_kib, s.hwm_kib);
  e2e["rss_mb"] = {(hwm_kib - rss_before_kib) / 1024.0, "MiB"};

  Json& h = res.header;
  h.set("workload", workload_name(o.workload));
  h.set("revision", o.revision);
  h.set("build_type", STACKBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  h.set("optimized", true);
#else
  h.set("optimized", false);
#endif
  h.set("compiler", __VERSION__);
  h.set("nproc", nproc());
  h.set("clients", clients);
  h.set("max_sessions", 2 * nproc());
  h.set("sim_threads", sim_threads);
  h.set("seed", static_cast<std::size_t>(o.seed));
  h.set("seconds", o.seconds);
  h.set("trace", o.trace);
  h.set("stream_digest", hex(pool.digest));
  h.set("pool_ops_per_client", pool.streams.front().size());
  h.set("pool_wraps", static_cast<std::size_t>(wraps));
  h.set("pool_build_s", pool_s);
  Json cpu_list = Json::array(), wall_list = Json::array();
  for (double s : setup_cpu) cpu_list.push(s);
  for (double s : setup_wall) wall_list.push(s);
  h.set("setup_cpu_runs_s", cpu_list);
  h.set("setup_wall_runs_s", wall_list);
  h.set("ops_attempted", static_cast<std::size_t>(all.attempted));
  h.set("ops_failed", static_cast<std::size_t>(all.failed));
  h.set("p50_samples", n);
  h.set("p99_samples", n);
  h.set("p99_samples_beyond", n / 100);
  h.set("host_steal_pct", pct(host.steal, host.total));
  h.set("host_idle_pct", pct(host.idle, host.total));
  h.set("exact", exact);
  h.set("rss_baseline_mib", rss_before_kib / 1024);
  h.set("rss_at_setup_mb", (setup_hwm_kib - rss_before_kib) / 1024);
  Json w_cpu = Json::array(), w_steal = Json::array();
  for (const Segment& s : plain) {
    for (const Segment::Window& w : s.windows) {
      w_cpu.push(w.ops > 0 ? w.cpu_s * 1e6 / w.ops : 0.0);
      w_steal.push(w.steal_pct);
    }
  }
  h.set("window_cpu_us_per_op", w_cpu);
  h.set("window_steal_pct", w_steal);

  if (!o.trace) {
    res.metrics = e2e;
  } else {
    // Per-layer figures. CPU splits come from the untraced segments;
    // trace overhead compares the two kinds of segment.
    Segment on;
    for (const Segment& s : traced) {
      on.cpu_s += s.cpu_s;
      on.attempted += s.attempted;
      on.failed += s.failed;
      on.ops.insert(on.ops.end(), s.ops.begin(), s.ops.end());
    }
    const double cpu_plain = all.cpu_s * 1e6 / done;
    const double cpu_traced =
        on.cpu_s * 1e6 / std::max<std::uint64_t>(on.completed(), 1);
    Metrics& m = res.metrics;
    m["net.client_cpu_us_per_op"] = {all.client_cpu_s * 1e6 / done, "us"};
    m["server.cpu_us_per_op"] = {(all.cpu_s - all.client_cpu_s) * 1e6 / done, "us"};
    m["server.csw_per_op"] = {static_cast<double>(all.nvcsw) / done, "count"};
    m["server.exec_us"] = {
        service.metrics().histogram("server.request_us").percentile(0.5), "us"};
    m["server.failed"] = {static_cast<double>(server_failed), "count"};
    m["core.store_hits"] = {static_cast<double>(store.hits + store.coalesced), "count"};
    m["core.store_misses"] = {static_cast<double>(store.misses), "count"};
    const double cycles = service.metrics().counter("sim.cycles").value();
    m["sim.kernel_evals_per_cycle"] = {
        cycles == 0 ? 0.0 : service.metrics().counter("sim.kernel.evals").value() / cycles,
        "count"};
    m["obs.trace_overhead_pct"] = {100.0 * (cpu_traced - cpu_plain) / cpu_plain, "%"};
    h.set("traced_ops", static_cast<std::size_t>(on.attempted));
    h.set("traced_cpu_us_per_op", cpu_traced);
    h.set("untraced_cpu_us_per_op", cpu_plain);
    for (const auto& [name, metric] : e2e) {
      h.set("untraced." + name, metric.value);
    }

    ReplayInput in;
    in.pool = &pool;
    in.ops = std::move(on.ops);
    in.samples = o.replay_ops;
    in.seed = o.seed;
    in.sim_threads = sim_threads;
    in.tracer = &bench_tracer;
    std::string problem;
    if (!replay_layers(in, res.metrics, res.notes, problem)) {
      res.problems.push_back("replay: " + problem);
    }
    bench_tracer.set_enabled(false);
    if (!o.trace_path.empty()) {
      if (write_trace(o.trace_path, service.tracer(), client_tracer, bench_tracer)) {
        h.set("trace_file", o.trace_path);
      } else {
        res.problems.push_back("could not write " + o.trace_path);
      }
    }
  }
  res.correct = res.problems.empty();
  return res;
}

}  // namespace stackbench
