#pragma once
// The three workloads (see ../README.md). Each builds its inputs from
// opt.seed, measures whole repetitions for opt.seconds, checks the outputs
// and returns every end-to-end metric (untraced) or every per-layer metric
// (traced).

#include "harness.hpp"

namespace perfbench {

Report run_loop(const Options& opt);
Report run_serve(const Options& opt);
Report run_service(const Options& opt);

}  // namespace perfbench
