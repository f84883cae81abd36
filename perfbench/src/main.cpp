// crowdlearn_perfbench: runs one workload of the end-to-end benchmark and
// prints context lines ("# ...") followed by one JSON result line.
//
//   crowdlearn_perfbench --workload loop|serve|service --seed N --seconds S
//                        --trace 0|1 --workdir DIR [--smoke]
//
// Exit codes: 0 result printed, 1 workload error, 2 bad arguments,
// 3 the build must not record (not Release, sanitized, or assertions on).

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--workdir") {
      opt->workdir = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->workdir.empty() && opt->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, &opt)) {
    std::cerr << "usage: crowdlearn_perfbench --workload loop|serve|service --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--smoke]\n";
    return 2;
  }
  std::cout << "# fingerprint " << perfbench::fingerprint_json() << std::endl;
  std::string why;
  if (!perfbench::build_is_recordable(&why)) {
    std::cerr << "crowdlearn_perfbench: refusing to record: " << why << "\n";
    return 3;
  }
  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "loop") run = perfbench::run_loop;
  if (opt.workload == "serve") run = perfbench::run_serve;
  if (opt.workload == "service") run = perfbench::run_service;
  if (run == nullptr) {
    std::cerr << "crowdlearn_perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  int code = 0;
  try {
    std::filesystem::remove_all(opt.workdir);
    std::filesystem::create_directories(opt.workdir);
    run(opt).print();
  } catch (const std::exception& e) {
    std::cerr << "crowdlearn_perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    code = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir, ec);
  return code;
}
