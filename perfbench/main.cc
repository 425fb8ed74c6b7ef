// The repository benchmark: one workload per process through the library's
// public API.  See perfbench/README.md; perfbench/run.py builds and runs it.
//
//   perfbench --workload protocol|service|live --seed N --seconds S
//             --trace 0|1 [--smoke] [--out DIR] [--commit ID]
//
// Standard output carries exactly one line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The run record — configuration, host, build, checks and,
// traced, the span tree — goes to DIR/<workload>-seed<N>-trace<T>.json.

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "perfbench/common.h"

#ifdef _OPENMP
#include <omp.h>
#endif

extern char** environ;

namespace perfbench {
namespace {

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") o->workload = value();
    else if (arg == "--seed")
      o->seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") o->seconds = std::atof(value().c_str());
    else if (arg == "--trace") o->trace = value() == "1";
    else if (arg == "--smoke") o->smoke = true;
    else if (arg == "--out") o->out_dir = value();
    else if (arg == "--commit") o->commit = value();
    else return false;
  }
  return (o->workload == "protocol" || o->workload == "service" ||
          o->workload == "live") &&
         o->seconds > 0.0;
}

/// Host, build and environment facts every run records.
JsonObject HostRecord(const Options& o) {
  JsonObject omp_env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "GOMP_", 5) == 0) {
      const std::string kv = *e;
      const size_t eq = kv.find('=');
      omp_env.Str(kv.substr(0, eq),
                  eq == std::string::npos ? "" : kv.substr(eq + 1));
    }
  JsonObject j;
  j.Str("workload", o.workload)
      .Int("seed", static_cast<int64_t>(o.seed))
      .Num("seconds", o.seconds)
      .Bool("trace", o.trace)
      .Bool("smoke", o.smoke)
      .Str("commit", o.commit)
      .Int("nproc", static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Int("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Obj("omp_env", omp_env)
#ifdef _OPENMP
      .Bool("openmp", true)
      .Int("omp_max_threads", omp_get_max_threads())
#else
      .Bool("openmp", false)
#endif
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("compiler", PERFBENCH_COMPILER);
  return j;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::cerr << "usage: perfbench --workload protocol|service|live --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--out DIR] "
                 "[--commit ID]\n";
    return 2;
  }
  const double origin = NowMs();
  const double steal0 = HostStealMs();
  Tracer tracer;
  tracer.set_enabled(o.trace);
  Output out;
  if (o.workload == "protocol") RunProtocol(o, &tracer, &out);
  else if (o.workload == "service") RunService(o, &tracer, &out);
  else RunLive(o, &tracer, &out);
  if (o.trace) SetSpanMetrics(tracer, &out);
  out.record()
      .Obj("host", HostRecord(o))
      .Num("run_ms", NowMs() - origin)
      .Num("run_cpu_ms", ProcessCpuMs())
      .Num("host_steal_ms", HostStealMs() - steal0);

  const std::string line =
      o.trace ? out.ResultLine(PerLayerMetrics(), /*missing_is_zero=*/true)
              : out.ResultLine(EndToEndMetrics(), /*missing_is_zero=*/false);
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream rec(path);
  rec << "{\"result\": " << line << ", \"run\": " << out.RecordJson();
  if (o.trace) rec << ", \"spans\": " << tracer.ToJson(origin);
  rec << "}\n";
  std::cout << line << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
