// stems_perfbench: runs one named workload for a fixed time, checks every
// query's rows against the brute-force reference, and prints its metrics.
//
//   stems_perfbench --workload join_sim --seed 7 --seconds 20 --trace 0
//       [--trace-out spans.json] [--commit <id>]
//   stems_perfbench --self-test drop-row
//
// The last stdout line is the result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is the run record. Normally driven by
// run.py, which builds this binary first.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "dataset.h"
#include "reference/brute_force.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Why this binary must not report timings, or empty when it may.
std::string UnfitBuild() {
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "'";
  }
  return "";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: stems_perfbench --workload "
               "<join_sim|join_threaded|spill_sim|server_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--commit <id>]\n       stems_perfbench --self-test "
               "drop-row\n",
               why);
  std::exit(2);
}

/// The correctness gate must catch a dropped row (and a duplicated one, and
/// a wrong projected value): runs one chain-join query, then checks the
/// intact, the shortened and the padded result lists against the
/// reference, and the rows against a projection that names another column.
int SelfTestDropRow() {
  stems::Engine engine;
  LoadTables(MakeDataset({120, 120, 60, 40, 30}), &engine);
  const Statement stmt = ChainJoinStatement();
  Reference reference;
  reference.Compute(&engine, {stmt});
  const QueryDraw draw{0, stmt.grid.size() - 1};
  auto prepared = engine.Prepare(stmt.sql);
  if (!prepared.ok()) return 1;
  auto handle =
      prepared.Value().Bind(stmt.Params(draw.point)).Submit(
          stems::RunOptions::Paper());
  if (!handle.ok()) return 1;
  Statement misprojected = stmt;
  misprojected.projection.back().second = 1;  // T.b where T.c is selected
  std::vector<std::string> keys;
  // One mismatching row fails the query, so one is enough to catch it.
  bool projected = true, misprojection_caught = false;
  stems::ResultCursor cursor = handle.Value().cursor();
  while (auto row = cursor.NextRow()) {
    keys.push_back(stems::ResultKey(*row->tuple()));
    projected = projected && ProjectionMatches(stmt, *row);
    misprojection_caught =
        misprojection_caught || !ProjectionMatches(misprojected, *row);
  }
  if (keys.size() < 2) {
    std::fprintf(stderr, "self-test: query returned %zu rows\n", keys.size());
    return 1;
  }
  const bool intact = reference.Check(draw, keys);
  std::vector<std::string> dropped = keys;
  dropped.erase(dropped.begin() + static_cast<long>(keys.size() / 2));
  const bool drop_caught = !reference.Check(draw, dropped);
  std::vector<std::string> duplicated = keys;
  duplicated.push_back(keys.front());
  const bool dup_caught = !reference.Check(draw, duplicated);
  std::printf("self-test drop-row: %zu rows; intact %s, dropped row %s, "
              "duplicated row %s, wrong projected value %s\n",
              keys.size(), intact && projected ? "passes" : "FAILS",
              drop_caught ? "caught" : "MISSED",
              dup_caught ? "caught" : "MISSED",
              misprojection_caught ? "caught" : "MISSED");
  return intact && projected && drop_caught && dup_caught &&
                 misprojection_caught
             ? 0
             : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string commit = "unknown";
  std::string self_test;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--self-test") {
      self_test = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (self_test == "drop-row") return SelfTestDropRow();
  if (!self_test.empty()) Usage("unknown self-test");
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  const std::string unfit = UnfitBuild();
  if (!unfit.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                 unfit.c_str());
    return 3;
  }

  RunResult result;
  if (args.workload == "join_sim" || args.workload == "join_threaded" ||
      args.workload == "spill_sim") {
    RunInProcess(args, &result);
  } else if (args.workload == "server_mix") {
    RunServerMix(args, &result);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  const std::string record =
      std::string("{\"workload\": ") + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + JsonNumber(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + JsonString(commit) +
      (result.clock_factor > 0
           ? ", \"clock_factor\": " + JsonNumber(result.clock_factor)
           : std::string()) +
      "}";
  if (args.trace) {
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << result.spans.ToChromeJson(record) << "\n";
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
    std::fputs(result.layer_table.c_str(), stdout);
  }
  std::printf("run_record %s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
