// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints progress lines, then one JSON result object as the last line.
// perfbench/run.py builds this binary and is the command BENCHMARK.json
// names.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <grammar-matrix|grammar-sharded|"
               "soak-restart> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (args.seconds <= 0) return usage("--seconds must be positive");
  std::error_code error;
  std::filesystem::create_directories(args.work_dir, error);

  dice::util::Log::set_level(dice::util::LogLevel::kError);
  perfbench::Report report;
  if (args.workload == "grammar-matrix") {
    perfbench::run_matrix(args, report);
  } else if (args.workload == "grammar-sharded") {
    perfbench::run_sharded(args, report);
  } else if (args.workload == "soak-restart") {
    perfbench::run_soak(args, report);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
