// The traced run's layer replay: a seeded sample of the run's ops, each
// pushed through the public functions of core, sim and net on a private
// store and private models, every call timed and filed as a span under
// the op's trace id.
#include <malloc.h>

#include <cstdio>

#include "core/artifact_store.h"
#include "core/blackbox.h"
#include "core/catalog.h"
#include "net/protocol.h"
#include "net/sim_server.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "stackbench.h"
#include "util/rng.h"

namespace stackbench {

namespace {

using jhdl::core::ArtifactStore;
using jhdl::core::BlackBoxModel;
using jhdl::core::IpArtifact;
using jhdl::core::ParamMap;
using jhdl::net::Message;
using jhdl::net::MsgType;
using jhdl::obs::Tracer;

/// Runs `fn`, files it as span `name` under `trace`, returns its µs.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t trace, Fn&& fn) {
  const std::uint64_t start = Tracer::now_us();
  const auto t0 = Clock::now();
  fn();
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  tracer.record(name, trace, start, Tracer::now_us() - start);
  return us;
}

/// Heap bytes in use (small-chunk arenas plus mmapped chunks).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// The wire side of one op: encode + decode and frame wrap + unwrap of
/// each message, as both peers do it.
struct Wire {
  double codec_us = 0;
  double frame_us = 0;
  double bytes = 0;
};

void add_wire(Tracer& tracer, std::uint64_t trace, const Message& msg,
              Wire& wire) {
  std::vector<std::uint8_t> payload;
  wire.codec_us += timed(tracer, "replay.net.codec", trace, [&] {
    payload = jhdl::net::encode(msg);
    (void)jhdl::net::decode(payload);
  });
  wire.frame_us += timed(tracer, "replay.net.frame", trace, [&] {
    const std::vector<std::uint8_t> frame = jhdl::net::frame_wrap(payload);
    wire.bytes += frame.size();
    (void)jhdl::net::frame_unwrap(frame);
  });
}

Message request(MsgType type, std::uint64_t seq, std::uint64_t trace) {
  Message m;
  m.type = type;
  m.seq = seq;
  m.trace = trace;
  return m;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace

bool replay_layers(const ReplayInput& in, Metrics& out,
                   std::vector<std::string>& notes, std::string& problem) {
  if (in.ops.empty()) {
    problem = "no completed traced ops to replay";
    return false;
  }
  Tracer& tracer = *in.tracer;
  const Pool& pool = *in.pool;
  const jhdl::core::IpCatalog catalog = jhdl::core::standard_catalog();
  const std::size_t n_cfg = roster().size();
  std::vector<std::shared_ptr<const jhdl::core::ModuleGenerator>> gens(n_cfg);
  std::vector<ParamMap> params(n_cfg);
  for (std::size_t r = 0; r < n_cfg; ++r) {
    gens[r] = catalog.find(roster()[r].module);
    for (const auto& [k, v] : roster()[r].params) params[r].set(k, v);
  }

  // core.build_cold_us: the whole roster on a fresh private store.
  std::vector<double> cold;
  for (int rep = 0; rep < 5; ++rep) {
    ArtifactStore store;
    double sum = 0;
    for (std::size_t r = 0; r < n_cfg; ++r) {
      sum += timed(tracer, "replay.core.build_cold", 0,
                   [&] { store.get_or_build(gens[r], params[r]); });
    }
    cold.push_back(sum);
  }

  ArtifactStore store;
  std::vector<std::shared_ptr<const IpArtifact>> art(n_cfg);
  for (std::size_t r = 0; r < n_cfg; ++r) {
    art[r] = store.get_or_build(gens[r], params[r]);
  }

  // core.model_kb: heap held by each live model of R2..R6, after one
  // throwaway instance has memoized the artifact's shared stages.
  std::vector<double> model_kib;
  for (std::size_t r = 1; r < n_cfg; ++r) {
    (void)art[r]->instantiate(in.sim_threads);
    constexpr int kLive = 3;
    std::vector<std::unique_ptr<BlackBoxModel>> live;
    const double before = heap_bytes();
    for (int k = 0; k < kLive; ++k) live.push_back(art[r]->instantiate(in.sim_threads));
    const double kib = (heap_bytes() - before) / kLive / 1024.0;
    model_kib.push_back(kib);
    char line[96];
    std::snprintf(line, sizeof line, "model heap %s: %.0f KiB", roster()[r].label, kib);
    notes.push_back(line);
  }

  // Private models at the service's kernel threads and at one thread.
  std::vector<std::unique_ptr<BlackBoxModel>> model(n_cfg), model_1t(n_cfg);
  for (std::size_t r = 0; r < n_cfg; ++r) {
    model[r] = art[r]->instantiate(in.sim_threads);
    model_1t[r] = art[r]->instantiate(1);
  }

  std::vector<double> hit_us, inst_us, free_us, eval_us, cycle_us, cycle_1t_us,
      pattern_us, codec_us, frame_us, bytes, overhead_us;
  std::size_t mismatches = 0;
  jhdl::Rng rng(in.seed ^ 0x7265706c6179ULL);
  for (std::size_t i = 0; i < in.samples; ++i) {
    const TracedOp& op = in.ops[rng.below(in.ops.size())];
    const Stream& st = pool.streams[op.client];
    const std::size_t cfg = st.config;
    const std::uint64_t trace = op.trace;
    const std::uint64_t seq = i + 1;
    BlackBoxModel& m = *model[cfg];
    BlackBoxModel& m1 = *model_1t[cfg];

    // core: a warm store hit, then one model's life.
    const double hit = timed(tracer, "replay.core.store_hit", trace,
                             [&] { store.get_or_build(gens[cfg], params[cfg]); });
    const std::size_t icfg =
        pool.workload == Workload::SessionOpen ? cfg : 1 + i % 4;
    std::unique_ptr<BlackBoxModel> fresh;
    const double inst = timed(tracer, "replay.core.instantiate", trace, [&] {
      fresh = art[icfg]->instantiate(in.sim_threads);
    });
    free_us.push_back(
        timed(tracer, "replay.core.model_free", trace, [&] { fresh.reset(); }));
    hit_us.push_back(hit);
    inst_us.push_back(inst);

    // sim + net on the op's own stimulus.
    Wire wire;
    double on_path = 0;
    Series stream, patterns;
    std::size_t cycles = 0, pattern_cycles = 0;
    std::vector<Message> evals;
    std::vector<std::uint64_t> expected;
    switch (pool.workload) {
      case Workload::CosimEval: {
        const std::uint16_t x = st.eval_inputs[op.op];
        Message eval = request(MsgType::Eval, seq, trace);
        eval.values = unpack_inputs(layout(cfg), x);
        eval.count = 1;
        evals.push_back(eval);
        expected.push_back(pool.r1_products[x]);
        stream = unpack_stream(layout(cfg), {x});
        patterns = stream;
        cycles = pattern_cycles = 1;
        break;
      }
      case Workload::SessionOpen: {
        Message hello = request(MsgType::Hello, 0, trace);
        hello.customer = "tenant-" + std::to_string(op.client);
        hello.name = roster()[cfg].module;
        hello.params = roster()[cfg].params;
        add_wire(tracer, trace, hello, wire);
        jhdl::Json iface = m.interface_json();
        iface.set("customer", hello.customer);
        iface.set("session", std::size_t{1000 + i});
        iface.set("protocol", std::size_t{jhdl::net::kProtocolVersion});
        iface.set("token", std::string("s1000-0123456789abcdef"));
        iface.set("trace", jhdl::obs::TraceContext::hex(trace));
        Message reply = request(MsgType::Iface, 0, trace);
        reply.text = iface.dump();
        add_wire(tracer, trace, reply, wire);
        std::vector<std::uint64_t> in_words;
        for (std::size_t k = 0; k < kOpenEvals; ++k) {
          const std::size_t w = op.op * kOpenEvals + k;
          Message eval = request(MsgType::Eval, seq, trace);
          eval.values = unpack_inputs(layout(cfg), st.open_inputs[w]);
          eval.count = 1;
          evals.push_back(eval);
          expected.push_back(st.open_outputs[w]);
          in_words.push_back(st.open_inputs[w]);
        }
        stream = unpack_stream(layout(cfg), in_words);
        patterns = stream;
        cycles = kOpenEvals;
        pattern_cycles = 1;
        on_path += hit + inst;
        break;
      }
      case Workload::BatchSweep: {
        const BatchOp& b = st.batch_ops[op.op];
        stream = b.stream(false);
        patterns = b.stream(true);
        cycles = kBatchCycles;
        pattern_cycles = kPatternCycles;
        Message eval = request(MsgType::Eval, seq, trace);
        for (const auto& [name, column] : stream) eval.values[name] = column[0];
        eval.count = 1;
        evals.push_back(eval);
        break;
      }
    }

    // sim.eval_us: the dispatcher both servers use, from power-on state.
    m.reset();
    double eval_sum = 0;
    for (std::size_t k = 0; k < evals.size(); ++k) {
      Message reply;
      const double us = timed(tracer, "replay.sim.eval", trace, [&] {
        reply = jhdl::net::dispatch_request(m, evals[k]);
      });
      eval_us.push_back(us);
      eval_sum += us;
      if (k < expected.size() &&
          (reply.type != MsgType::Values ||
           !outputs_match(layout(cfg), expected[k], reply.values))) {
        ++mismatches;
      }
      if (pool.workload == Workload::CosimEval) {
        reply.seq = seq;
        reply.trace = trace;
        add_wire(tracer, trace, evals[k], wire);
        add_wire(tracer, trace, reply, wire);
      }
    }
    if (pool.workload == Workload::CosimEval) on_path += eval_sum;

    // sim.cycle_batch_us at the service's threads and at one thread.
    m.reset();
    m1.reset();
    Series got_cycles, got_patterns;
    const double cyc = timed(tracer, "replay.sim.cycle_batch", trace, [&] {
      got_cycles = m.cycle_batch(cycles, stream, {});
    });
    cycle_1t_us.push_back(timed(tracer, "replay.sim.cycle_batch_1t", trace,
                                [&] { (void)m1.cycle_batch(cycles, stream, {}); }));
    const double pat = timed(tracer, "replay.sim.pattern_batch", trace, [&] {
      got_patterns = m.pattern_batch(patterns, pattern_cycles, {});
    });
    cycle_us.push_back(cyc);
    pattern_us.push_back(pat);
    if (pool.workload == Workload::BatchSweep) {
      const BatchOp& b = st.batch_ops[op.op];
      if (!batch_matches(got_cycles, kBatchCycles, b.cycle_digest) ||
          !batch_matches(got_patterns, kPatterns, b.pattern_digest)) {
        ++mismatches;
      }
      Message creq = request(MsgType::CycleBatch, seq, trace);
      creq.count = cycles;
      creq.series = stream;
      Message crep = request(MsgType::BatchValues, seq, trace);
      crep.count = m.cycle_count();
      crep.series = std::move(got_cycles);
      Message preq = request(MsgType::PatternBatch, seq + 1, trace);
      preq.count = pattern_cycles;
      preq.series = patterns;
      Message prep = request(MsgType::BatchValues, seq + 1, trace);
      prep.series = std::move(got_patterns);
      for (const Message* msg : {&creq, &crep, &preq, &prep}) {
        add_wire(tracer, trace, *msg, wire);
      }
      on_path += cyc + pat;
    }

    on_path += wire.codec_us + wire.frame_us;
    codec_us.push_back(wire.codec_us);
    frame_us.push_back(wire.frame_us);
    bytes.push_back(wire.bytes);
    overhead_us.push_back(op.latency_us - on_path);
  }

  double kib_sum = 0;
  for (double k : model_kib) kib_sum += k;
  out["core.build_cold_us"] = {median(cold), "us"};
  out["core.store_hit_us"] = {median(hit_us), "us"};
  out["core.instantiate_us"] = {median(inst_us), "us"};
  out["core.model_free_us"] = {median(free_us), "us"};
  out["core.model_kb"] = {kib_sum / model_kib.size(), "KiB"};
  out["sim.eval_us"] = {median(eval_us), "us"};
  out["sim.cycle_batch_us"] = {median(cycle_us), "us"};
  out["sim.cycle_batch_1t_us"] = {median(cycle_1t_us), "us"};
  out["sim.pattern_batch_us"] = {median(pattern_us), "us"};
  out["net.codec_us"] = {median(codec_us), "us"};
  out["net.frame_us"] = {median(frame_us), "us"};
  out["net.bytes_per_op"] = {median(bytes), "B"};
  out["server.overhead_us"] = {median(overhead_us), "us"};
  notes.push_back("replayed " + std::to_string(in.samples) + " ops drawn from " +
                  std::to_string(in.ops.size()) + " traced ops");
  if (mismatches != 0) {
    problem = std::to_string(mismatches) + " replayed outputs differ from the reference";
    return false;
  }
  return true;
}

}  // namespace stackbench
