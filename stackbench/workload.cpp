// Stimulus, expected replies and reply checks. Nothing here touches the
// service's store or kernels: expected values come from closed forms or
// from the corpus golden models.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/golden.h"
#include "stackbench.h"
#include "util/rng.h"

namespace stackbench {

namespace {

std::uint64_t mask(unsigned width) {
  return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

unsigned total_width(const std::vector<Port>& ports) {
  unsigned w = 0;
  for (const Port& p : ports) w += p.width;
  return w;
}

/// Reads `width` bits from `lo` as an unsigned value; false on X/Z.
bool read_bits(const BitVector& v, std::size_t lo, std::size_t width,
               std::uint64_t& out) {
  out = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const jhdl::Logic4 b = v.get(lo + i);
    if (b == jhdl::Logic4::One) {
      out |= 1ULL << i;
    } else if (b != jhdl::Logic4::Zero) {
      return false;
    }
  }
  return true;
}

// R6: systolic-array 4x4, 8-bit operands, 8 guard bits.
constexpr std::size_t kR6Pes = 16;
constexpr std::size_t kR6AccWidth = 2 * 8 + 8;

class KcmReference final : public Reference {
 public:
  KcmReference(std::int64_t constant, unsigned product_width)
      : c_(constant), mask_(mask(product_width)) {}
  std::uint64_t step(std::uint64_t x) override {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x) * c_) &
           mask_;
  }

 private:
  std::int64_t c_;
  std::uint64_t mask_;
};

/// fir4-filter, default taps {1, 2, 2, 1}, signed 12-bit x, 16-bit y.
/// The delay line clocks in the applied x, so after the edge
/// y = c0*x + c1*x + c2*x[-1] + c3*x[-2].
class FirReference final : public Reference {
 public:
  std::uint64_t step(std::uint64_t x_bits) override {
    const std::int64_t x = static_cast<std::int64_t>(x_bits << 52) >> 52;
    d3_ = d2_;
    d2_ = d1_;
    d1_ = x;
    const std::int64_t y = 1 * x + 2 * d1_ + 2 * d2_ + 1 * d3_;
    return static_cast<std::uint64_t>(y) & mask(16);
  }

 private:
  std::int64_t d1_ = 0, d2_ = 0, d3_ = 0;
};

/// systolic-array {} = 2x2, 4-bit operands, 4 guard bits.
class SystolicReference final : public Reference {
 public:
  std::uint64_t step(std::uint64_t in) override {
    model_.step(in & 0xFF, (in >> 8) & 0xFF, (in >> 16) & 1);
    std::uint64_t out = 0;
    for (std::size_t pe = 0; pe < 4; ++pe) {
      out |= model_.acc(pe / 2, pe % 2) << (pe * model_.acc_width());
    }
    return out;
  }

 private:
  jhdl::core::golden::SystolicModel model_{2, 2, 4, 4};
};

/// rf-alu {regs 4, width 8}.
class RfAluReference final : public Reference {
 public:
  std::uint64_t step(std::uint64_t in) override {
    const auto out = model_.step(in & 3, (in >> 2) & 3, (in >> 4) & 3,
                                 (in >> 6) & 1,
                                 static_cast<unsigned>((in >> 7) & 7),
                                 (in >> 10) & 0xFF, (in >> 18) & 1);
    return out.result | (std::uint64_t{out.zero} << 8);
  }

 private:
  jhdl::core::golden::RfAluModel model_{4, 8};
};

/// The steps of one batch-sweep op, expanded from its key.
struct BatchSteps {
  std::vector<std::uint64_t> ab;  ///< a | b << 32
  std::vector<bool> clr;

  explicit BatchSteps(std::uint64_t key)
      : ab(kBatchCycles + kPatterns), clr(kBatchCycles + kPatterns) {
    jhdl::Rng rng(key);
    for (std::size_t i = 0; i < ab.size(); ++i) {
      ab[i] = rng.next();
      // Rare clears, so accumulators build up between them.
      clr[i] = rng.below(8) == 0;
    }
  }
};

/// Expected acc columns of one batch-sweep op, from the golden model.
void expect_batch(BatchOp& op) {
  using jhdl::core::golden::SystolicModel;
  auto add_accs = [](Fnv& fnv, const SystolicModel& m) {
    for (std::size_t pe = 0; pe < kR6Pes; ++pe) fnv.add(m.acc(pe / 4, pe % 4));
  };
  const BatchSteps steps(op.key);
  // The CycleBatch starts from power-on state: the session is fresh, or
  // the previous op's PatternBatch left it in reset.
  Fnv cycles;
  SystolicModel stream(4, 4, 8, 8);
  for (std::size_t t = 0; t < kBatchCycles; ++t) {
    stream.step(steps.ab[t] & 0xFFFFFFFF, steps.ab[t] >> 32, steps.clr[t]);
    add_accs(cycles, stream);
  }
  Fnv patterns;
  for (std::size_t p = 0; p < kPatterns; ++p) {
    const std::size_t i = kBatchCycles + p;
    SystolicModel m(4, 4, 8, 8);
    for (std::size_t t = 0; t < kPatternCycles; ++t) {
      m.step(steps.ab[i] & 0xFFFFFFFF, steps.ab[i] >> 32, steps.clr[i]);
    }
    add_accs(patterns, m);
  }
  op.cycle_digest = cycles.h;
  op.pattern_digest = patterns.h;
}

/// expect_batch over every op of `streams`, spread over up to eight
/// threads (about 0.6 ms per op on one core).
void expect_batches(std::vector<Stream>& streams) {
  std::vector<BatchOp*> ops;
  for (Stream& st : streams) {
    for (BatchOp& op : st.batch_ops) ops.push_back(&op);
  }
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < ops.size(); i = next++) {
      expect_batch(*ops[i]);
    }
  };
  std::vector<std::thread> helpers(
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u) - 1);
  for (std::thread& t : helpers) t = std::thread(work);
  work();
  for (std::thread& t : helpers) t.join();
}

std::uint64_t op_key(const std::vector<std::uint64_t>& words) {
  Fnv fnv;
  for (std::uint64_t w : words) fnv.add(w);
  return fnv.h;
}

/// Digest of one R6 acc column; false when a sample has the wrong width
/// or an undriven bit.
bool acc_digest(const std::vector<BitVector>& column, std::uint64_t& digest) {
  Fnv fnv;
  for (const BitVector& sample : column) {
    if (sample.width() != kR6Pes * kR6AccWidth) return false;
    for (std::size_t pe = 0; pe < kR6Pes; ++pe) {
      std::uint64_t acc = 0;
      if (!read_bits(sample, pe * kR6AccWidth, kR6AccWidth, acc)) return false;
      fnv.add(acc);
    }
  }
  digest = fnv.h;
  return true;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::CosimEval, Workload::SessionOpen,
                     Workload::BatchSweep}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::CosimEval:
      return "cosim-eval";
    case Workload::SessionOpen:
      return "session-open";
    case Workload::BatchSweep:
      return "batch-sweep";
  }
  return "?";
}

const std::vector<Config>& roster() {
  static const std::vector<Config> entries = {
      {"R1", "kcm-multiplier", {{"input_width", 16}, {"constant", -56}}},
      {"R2", "kcm-multiplier", {{"input_width", 32}, {"constant", 12345}}},
      {"R3", "fir4-filter", {{"input_width", 12}}},
      {"R4", "systolic-array", {}},
      {"R5", "rf-alu", {{"regs", 4}, {"width", 8}}},
      {"R6", "systolic-array",
       {{"rows", 4}, {"cols", 4}, {"data_width", 8}, {"guard_bits", 8}}},
  };
  return entries;
}

const Layout& layout(std::size_t config) {
  // Product widths: multiplicand width plus the constant's width (7 bits
  // for -56 in two's complement, 14 for 12345).
  static const std::vector<Layout> layouts = {
      {{{"multiplicand", 16}}, {{"product", 23}}},
      {{{"multiplicand", 32}}, {{"product", 46}}},
      {{{"x", 12}}, {{"y", 16}}},
      {{{"a", 8}, {"b", 8}, {"clr", 1}}, {{"acc", 48}}},
      {{{"ra", 2}, {"rb", 2}, {"wa", 2}, {"we", 1}, {"op", 3}, {"imm", 8},
        {"use_imm", 1}},
       {{"result", 8}, {"zero", 1}}},
  };
  return layouts.at(config);
}

Values unpack_inputs(const Layout& layout, std::uint64_t packed) {
  Values values;
  for (const Port& p : layout.in) {
    values.emplace(p.name, BitVector::from_uint(p.width, packed & mask(p.width)));
    packed >>= p.width;
  }
  return values;
}

Series unpack_stream(const Layout& layout,
                     const std::vector<std::uint64_t>& packed) {
  Series series;
  for (std::uint64_t word : packed) {
    for (const Port& p : layout.in) {
      series[p.name].push_back(BitVector::from_uint(p.width, word & mask(p.width)));
      word >>= p.width;
    }
  }
  return series;
}

bool outputs_match(const Layout& layout, std::uint64_t expected,
                   const Values& got) {
  if (got.size() != layout.out.size()) return false;
  for (const Port& p : layout.out) {
    auto it = got.find(p.name);
    std::uint64_t value = 0;
    if (it == got.end() || it->second.width() != p.width ||
        !read_bits(it->second, 0, p.width, value) ||
        value != (expected & mask(p.width))) {
      return false;
    }
    expected >>= p.width;
  }
  return true;
}

std::unique_ptr<Reference> make_reference(std::size_t config) {
  switch (config) {
    case 0:
      return std::make_unique<KcmReference>(-56, 23);
    case 1:
      return std::make_unique<KcmReference>(12345, 46);
    case 2:
      return std::make_unique<FirReference>();
    case 3:
      return std::make_unique<SystolicReference>();
    case 4:
      return std::make_unique<RfAluReference>();
  }
  throw std::out_of_range("no reference for roster entry " +
                          std::to_string(config + 1));
}

Series BatchOp::stream(bool patterns) const {
  const BatchSteps steps(key);
  const std::size_t begin = patterns ? kBatchCycles : 0;
  const std::size_t end = patterns ? kBatchCycles + kPatterns : kBatchCycles;
  Series s;
  auto& a = s["a"];
  auto& b = s["b"];
  auto& c = s["clr"];
  a.reserve(end - begin);
  b.reserve(end - begin);
  c.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    a.push_back(BitVector::from_uint(32, steps.ab[i] & 0xFFFFFFFF));
    b.push_back(BitVector::from_uint(32, steps.ab[i] >> 32));
    c.push_back(BitVector::from_uint(1, steps.clr[i] ? 1 : 0));
  }
  return s;
}

bool batch_matches(const Series& got, std::size_t samples,
                   std::uint64_t expected) {
  if (got.size() != 1) return false;
  auto it = got.find("acc");
  std::uint64_t digest = 0;
  return it != got.end() && it->second.size() == samples &&
         acc_digest(it->second, digest) && digest == expected;
}

std::size_t Stream::size() const {
  if (!eval_inputs.empty()) return eval_inputs.size();
  if (!batch_ops.empty()) return batch_ops.size();
  return open_inputs.size() / kOpenEvals;
}

std::uint64_t trace_id(std::uint64_t seed, std::size_t client,
                       std::size_t op) {
  return mix(mix(seed ^ 0x7261636562656e63ULL) ^ (client << 40) ^ op) | 1;
}

std::size_t pool_ops(Workload workload, double seconds) {
  // Per-client op rates seen on a 4-vCPU host are up to about 13.5k/s,
  // 160/s and 20/s.
  double per_second = 0;
  switch (workload) {
    case Workload::CosimEval:
      per_second = 60000;
      break;
    case Workload::SessionOpen:
      per_second = 2500;
      break;
    case Workload::BatchSweep:
      per_second = 250;
      break;
  }
  return static_cast<std::size_t>(per_second * std::max(seconds, 0.5)) + 16;
}

std::size_t check_ops(Workload workload) {
  switch (workload) {
    case Workload::CosimEval:
      return 256;
    case Workload::SessionOpen:
      return 16;
    case Workload::BatchSweep:
      return 4;
  }
  return 1;
}

Pool make_pool(Workload workload, std::uint64_t seed, std::size_t clients,
               std::size_t ops, std::size_t check_ops) {
  Pool pool;
  pool.workload = workload;
  pool.streams.resize(clients + 1);
  Fnv digest;
  auto depth = [&](std::size_t s) { return s < clients ? ops : check_ops; };

  if (workload == Workload::CosimEval) {
    // Seeded permutations of the 2^16 R1 inputs, dealt round-robin to the
    // streams: no input repeats within an epoch of 65536 ops.
    constexpr std::size_t kSpace = 1 << 16;
    std::size_t total = 0;
    for (std::size_t s = 0; s <= clients; ++s) {
      pool.streams[s].config = kR1;
      pool.streams[s].eval_inputs.reserve(depth(s));
      total += depth(s);
    }
    std::vector<std::uint16_t> perm(kSpace);
    std::size_t dealt = 0;
    for (std::size_t epoch = 0; dealt < total; ++epoch) {
      std::iota(perm.begin(), perm.end(), 0);
      jhdl::Rng rng(mix(seed) ^ mix(epoch + 1));
      for (std::size_t i = kSpace - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.below(i + 1)]);
      }
      for (std::size_t i = 0; i < kSpace && dealt < total; ++i) {
        // Deal to the next stream that still needs inputs.
        std::size_t s = i % (clients + 1);
        for (std::size_t k = 0; k <= clients; ++k) {
          const std::size_t cand = (s + k) % (clients + 1);
          if (pool.streams[cand].eval_inputs.size() < depth(cand)) {
            s = cand;
            break;
          }
        }
        pool.streams[s].eval_inputs.push_back(perm[i]);
        ++dealt;
      }
    }
    for (const Stream& st : pool.streams) {
      for (std::uint16_t x : st.eval_inputs) digest.add(x);
    }
    auto ref = make_reference(kR1);
    pool.r1_products.resize(kSpace);
    for (std::size_t x = 0; x < kSpace; ++x) {
      pool.r1_products[x] = static_cast<std::uint32_t>(ref->step(x));
    }
  } else if (workload == Workload::SessionOpen) {
    // Stream s opens R(2 + s mod 4).
    std::vector<std::unordered_set<std::uint64_t>> seen(5);
    for (std::size_t s = 0; s <= clients; ++s) {
      Stream& st = pool.streams[s];
      jhdl::Rng rng(mix(seed) ^ mix(0x5E55 + s));
      st.config = 1 + s % 4;
      st.open_inputs.reserve(depth(s) * kOpenEvals);
      st.open_outputs.reserve(depth(s) * kOpenEvals);
      for (std::size_t op = 0; op < depth(s); ++op) {
        const std::size_t config = st.config;
        const unsigned width = total_width(layout(config).in);
        std::vector<std::uint64_t> in(kOpenEvals);
        do {
          for (auto& w : in) w = rng.next() & mask(width);
        } while (!seen[config].insert(op_key(in)).second);
        auto ref = make_reference(config);
        for (std::uint64_t w : in) {
          st.open_inputs.push_back(w);
          st.open_outputs.push_back(ref->step(w));
          digest.add(w);
        }
      }
    }
  } else {
    // Keys are distinct because mix is a bijection, and distinct keys
    // expand to distinct first steps because xoshiro's SplitMix seeding
    // and output scrambler are bijections too: no two ops share stimulus.
    const std::uint64_t base = mix(seed ^ 0xBA7C);
    for (std::size_t s = 0; s <= clients; ++s) {
      Stream& st = pool.streams[s];
      st.config = kR6;
      st.batch_ops.resize(depth(s));
      for (std::size_t i = 0; i < depth(s); ++i) {
        BatchOp& op = st.batch_ops[i];
        op.key = mix(base + ((std::uint64_t{s} << 40) | i));
        digest.add(op.key);
      }
    }
    expect_batches(pool.streams);
  }
  pool.digest = digest.h;
  return pool;
}

}  // namespace stackbench
