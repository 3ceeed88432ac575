// stackbench: the delivery-stack benchmark.
//
// One run drives an in-process DeliveryService on standard_catalog() over
// loopback with `clients` closed-loop SimClient threads (one Evaluation-
// licensed tenant each), checks every reply against an independent
// reference, and reports end-to-end metrics. A traced run additionally
// replays a seeded sample of the run's ops through each layer's public
// functions and reports per-layer metrics. README.md explains the
// workloads, the metrics and how they relate.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bitvector.h"
#include "util/json.h"

namespace jhdl::obs {
class Tracer;
}

namespace stackbench {

using jhdl::BitVector;
using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, BitVector>;
using Series = std::map<std::string, std::vector<BitVector>>;

// ------------------------------------------------------------ stats.cpp

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (the inclusive definition: q = 0 is the minimum, q = 1 the maximum).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> sample, double q);

/// True when a sample of `n` holds at least ten values beyond its 99th
/// percentile, the least a p99 may rest on.
bool p99_supported(std::size_t n);

/// FNV-1a, 64-bit: the digest of request streams and expected replies.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

// --------------------------------------------------------- workload.cpp

enum class Workload { CosimEval, SessionOpen, BatchSweep };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// One catalog configuration of the set-up roster.
struct Config {
  const char* label;  ///< "R1".."R6"
  const char* module;
  std::map<std::string, std::int64_t> params;
};

/// R1..R6 in set-up order (index 0 is R1). R6 is the batch-sweep target.
const std::vector<Config>& roster();
inline constexpr std::size_t kR1 = 0;
inline constexpr std::size_t kR6 = 5;

/// Fixed op shapes. Every session-open op runs this many untimed Evals;
/// every batch-sweep op one CycleBatch of kBatchCycles cycles and one
/// PatternBatch of kPatterns patterns x kPatternCycles cycles.
inline constexpr std::size_t kOpenEvals = 4;
inline constexpr std::size_t kBatchCycles = 64;
inline constexpr std::size_t kPatterns = 1024;
inline constexpr std::size_t kPatternCycles = 4;

/// Input and output ports of roster entries R1..R5. A clock step's
/// inputs, and the outputs expected after it, pack LSB-first in port
/// order into one 64-bit word each. (R6's 384-bit output bus does not
/// fit; batch-sweep ops carry digests instead, see BatchOp.)
struct Port {
  const char* name;
  unsigned width;
};
struct Layout {
  std::vector<Port> in;
  std::vector<Port> out;
};
const Layout& layout(std::size_t config);

/// The Eval input map for a packed input word.
Values unpack_inputs(const Layout& layout, std::uint64_t packed);
/// Stream form of several packed steps (one value per step per input).
Series unpack_stream(const Layout& layout,
                     const std::vector<std::uint64_t>& packed);

/// Reply checker: true when `got` holds exactly the layout's outputs with
/// the expected widths and values (fully driven bits only).
bool outputs_match(const Layout& layout, std::uint64_t expected,
                   const Values& got);

/// Runs one op and judges it: false when it throws (an Error reply, a
/// refused or dropped connection) or when `op` finds a reply wrong.
template <typename Fn>
bool checked(Fn&& op) {
  try {
    return op();
  } catch (const std::exception&) {
    return false;
  }
}

/// Independent reference for R1..R5: closed form for the KCM product and
/// the FIR tap sum, the corpus golden models (core/golden.h) for the
/// systolic array and rf-alu. Starts in power-on state.
class Reference {
 public:
  virtual ~Reference() = default;
  /// Apply one packed input word, clock once, return the packed outputs.
  virtual std::uint64_t step(std::uint64_t packed_inputs) = 0;
};
std::unique_ptr<Reference> make_reference(std::size_t config);

/// One batch-sweep op on R6: kBatchCycles cycle steps followed by
/// kPatterns patterns, each an (a | b << 32) word plus a clr bit, all
/// expanded from `key`, and digests of the expected acc columns (see
/// acc_digest). An op keeps only its key, so a pool can hold many times
/// the ops a run uses.
struct BatchOp {
  std::uint64_t key = 0;
  std::uint64_t cycle_digest = 0;
  std::uint64_t pattern_digest = 0;

  /// Stimulus of the CycleBatch (cycle steps) or the PatternBatch.
  Series stream(bool patterns) const;
};

/// Checks a CycleBatch/PatternBatch reply: exactly the acc column, with
/// `samples` values whose digest (each sample's 16 PE accumulators in PE
/// order, FNV-1a) is `expected`.
bool batch_matches(const Series& got, std::size_t samples,
                   std::uint64_t expected);

/// The seeded stimulus of one client, with its expected replies, made
/// before the service is built. Ops are consumed in order; a client that
/// runs past the end wraps, which makes the run incorrect.
struct Stream {
  std::size_t config = 0;  ///< roster index this client's sessions use
  // cosim-eval: one packed R1 input per op (a 16-bit multiplicand).
  std::vector<std::uint16_t> eval_inputs;
  // session-open: kOpenEvals packed inputs and outputs per op.
  std::vector<std::uint64_t> open_inputs;
  std::vector<std::uint64_t> open_outputs;
  // batch-sweep.
  std::vector<BatchOp> batch_ops;

  std::size_t size() const;
};

/// Every client's stream plus the check-pass stream (the last one), and
/// the R1 product table cosim-eval checks against.
struct Pool {
  Workload workload = Workload::CosimEval;
  std::vector<Stream> streams;
  std::vector<std::uint32_t> r1_products;  ///< indexed by multiplicand
  /// FNV-1a over every stream's stimulus (on batch-sweep, the op keys).
  std::uint64_t digest = 0;
};

/// Build the pool for `clients` client streams plus one check-pass
/// stream holding `check_ops` ops. Each client stream holds `ops` ops.
/// No two ops anywhere in the pool carry the same stimulus, except that
/// cosim-eval's 2^16 R1 inputs are drawn as seeded permutations: unique
/// within each 65536-op epoch.
Pool make_pool(Workload workload, std::uint64_t seed, std::size_t clients,
               std::size_t ops, std::size_t check_ops);

/// Per-client pool depth for a run of `seconds`, well above the op rates
/// measured on a 4-vCPU host (over ten times on session-open and
/// batch-sweep), so that a much faster stack still does not run out.
std::size_t pool_ops(Workload workload, double seconds);
/// Ops in the check pass that yields the exact counts.
std::size_t check_ops(Workload workload);

/// Deterministic non-zero trace id for (seed, client, op).
std::uint64_t trace_id(std::uint64_t seed, std::size_t client,
                       std::size_t op);

// ----------------------------------------------------------- runner.cpp

struct Options {
  Workload workload = Workload::CosimEval;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // The command line always runs nproc clients and fifteen set-ups; the
  // self-tests' smoke runs use fewer.
  std::size_t clients = 0;     ///< 0 = nproc
  std::size_t setups = 15;     ///< set-ups per run; setup_s is the median
  std::size_t replay_ops = 1000;  ///< traced run: ops replayed per layer
  std::string revision;        ///< source revision for the header
  std::string trace_path;      ///< traced run: Chrome trace JSON output
};

/// One named metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one run measured.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> problems;  ///< why `correct` is false
  /// The run header: revision, build, host steal/idle, sample counts,
  /// stream digest and the exact counts. Diagnostics, not metrics.
  jhdl::Json header = jhdl::Json::object();
  /// Extra lines for the per-layer table (traced runs).
  std::vector<std::string> notes;
};

/// Runs one workload end to end (see README.md).
Result run(const Options& options);

// ----------------------------------------------------------- layers.cpp

/// One op of the traced segments, kept for the layer replay.
struct TracedOp {
  std::size_t client = 0;
  std::size_t op = 0;  ///< index into the client's stream
  double latency_us = 0.0;
  std::uint64_t trace = 0;
};

/// Inputs of the layer replay, gathered by run().
struct ReplayInput {
  const Pool* pool = nullptr;
  std::vector<TracedOp> ops;  ///< completed, checked ops to sample from
  std::size_t samples = 1000;
  std::uint64_t seed = 1;
  std::size_t sim_threads = 0;  ///< the service's resolved kernel threads
  jhdl::obs::Tracer* tracer = nullptr;  ///< the benchmark's span sink
};

/// Replays a seeded sample of ops through each layer's public functions
/// on a private store and private models, timing every call. Adds the
/// core.*, sim.*_us and net.*_us/bytes metrics and server.overhead_us to
/// `out`; returns false (with `problem` set) if a replayed output differs
/// from the reference.
bool replay_layers(const ReplayInput& input, Metrics& out,
                   std::vector<std::string>& notes, std::string& problem);

// ----------------------------------------------------------- report.cpp

/// Metric names and units, in print order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result);

/// Human-readable header and metric table.
std::string render(const Options& options, const Result& result);

}  // namespace stackbench
