// wsnq_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON object on stdout. perfbench/run.py builds this
// program, runs it, checks the outputs and turns the measurements into
// the benchmark's metrics.
//
//   wsnq_perfbench --workload=paper-default --seed=1 --seconds=10 --trace=0
//
// Workloads: paper-default, scale-64k, pressure-arq, serve-churn.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, BenchArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "expected --name=value, got %s\n", arg.c_str());
      return false;
    }
    value = arg.substr(eq + 1);
    arg = arg.substr(2, eq - 2);
    char* end = nullptr;
    if (arg == "workload") {
      args->workload = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s needs a number\n", arg.c_str());
      return false;
    }
    if (arg == "seed" && number >= 0) {
      args->seed = static_cast<uint64_t>(number);
    } else if (arg == "seconds" && number > 0) {
      args->seconds = number;
    } else if (arg == "trace" && (number == 0 || number == 1)) {
      args->trace = number == 1;
    } else {
      std::fprintf(stderr, "bad flag --%s=%s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  if (!IsSimWorkload(args->workload) && !IsServeWorkload(args->workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return false;
  }
  return true;
}

void WriteSpans(JsonWriter* out) {
  const std::vector<Span> spans = CollectSpans();
  out->Key("spans").BeginArray();
  for (const Span& span : spans) {
    out->BeginArray()
        .Value(span.name)
        .Value(span.parent)
        .Value(span.thread)
        .Value(span.start)
        .Value(span.end)
        .Value(span.cpu)
        .EndArray();
  }
  out->EndArray();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  BenchArgs args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Now();  // fix the clock epoch before any work

  JsonWriter out;
  out.BeginObject();
  out.Field("workload", args.workload);
  out.Field("seed", static_cast<int64_t>(args.seed));
  out.Field("seconds", args.seconds);
  out.Field("trace", args.trace);
  out.Field("compiler", PERFBENCH_COMPILER);
  out.Field("build_type", PERFBENCH_BUILD_TYPE);
  const bool ok = IsSimWorkload(args.workload)
                      ? RunSimWorkload(args, &out)
                      : RunServeWorkload(args, &out);
  if (!ok) return 1;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Field("peak_rss_kb", static_cast<int64_t>(usage.ru_maxrss));
  WriteSpans(&out);
  out.EndObject();
  std::fwrite(out.str().data(), 1, out.str().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
