#include <charconv>
#include <cstdio>

#include "stackbench.h"

namespace stackbench {

namespace {

std::string number(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) { return jhdl::Json(s).dump(); }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},        {"setup_wall_s", "s"},
      {"ops_per_s", "1/s"},    {"op_p50_us", "us"},
      {"op_p99_us", "us"},     {"cpu_us_per_op", "us"},
      {"rss_mb", "MiB"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"core.build_cold_us", "us"},
      {"core.store_hit_us", "us"},
      {"core.instantiate_us", "us"},
      {"core.model_free_us", "us"},
      {"core.model_kb", "KiB"},
      {"core.store_hits", "count"},
      {"core.store_misses", "count"},
      {"sim.eval_us", "us"},
      {"sim.cycle_batch_us", "us"},
      {"sim.cycle_batch_1t_us", "us"},
      {"sim.pattern_batch_us", "us"},
      {"sim.kernel_evals_per_cycle", "count"},
      {"net.codec_us", "us"},
      {"net.frame_us", "us"},
      {"net.bytes_per_op", "B"},
      {"net.client_cpu_us_per_op", "us"},
      {"server.overhead_us", "us"},
      {"server.exec_us", "us"},
      {"server.cpu_us_per_op", "us"},
      {"server.csw_per_op", "count"},
      {"server.failed", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  return list;
}

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  return out;
}

std::string render(const Options& options, const Result& result) {
  std::string out = "# header " + result.header.dump() + "\n";
  const auto& names =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  out += options.trace ? "# per-layer metrics (traced run)\n"
                       : "# end-to-end metrics (untraced run)\n";
  for (const auto& [name, unit] : names) {
    char line[128];
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      std::snprintf(line, sizeof line, "  %-28s %14s\n", name.c_str(),
                    "not reported");
    } else {
      std::snprintf(line, sizeof line, "  %-28s %14.3f %s\n", name.c_str(),
                    it->second.value, unit.c_str());
    }
    out += line;
  }
  for (const std::string& note : result.notes) out += "# " + note + "\n";
  for (const std::string& p : result.problems) out += "# PROBLEM: " + p + "\n";
  return out;
}

}  // namespace stackbench
