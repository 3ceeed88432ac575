// stackbench --workload <cosim-eval|session-open|batch-sweep> --seed <n>
//            --seconds <s> --trace <0|1> [--revision <text>]
//            [--trace-out <path>]
//
// Prints the run header, the metric table, and as its last line the
// result JSON. Exits non-zero on a usage error.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "stackbench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload "
               "<cosim-eval|session-open|batch-sweep> --seed <n> --seconds "
               "<s> --trace <0|1> [--revision <text>] [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  stackbench::Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        auto w = stackbench::parse_workload(value);
        if (!w) return usage(("unknown workload " + value).c_str());
        o.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--revision") {
        o.revision = value;
      } else if (arg == "--trace-out") {
        o.trace_path = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  const stackbench::Result result = stackbench::run(o);
  std::cout << stackbench::render(o, result)
            << stackbench::result_json(result) << std::endl;
  return 0;
}
