// pdtbench: runs one workload and reports it.
//
//   pdtbench --workload <olap_hot|olap_cold|htap_mixed|ingest>
//            [--seed N] [--seconds S] [--trace 0|1] [--sf F]
//            [--setup-reps R]
//
// Prints one `workload metric value unit [n=samples]` line per metric,
// `#` comment lines, and as its last line one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (untraced) or the per-layer metrics
// (--trace 1). Exits 0 only if every correctness check passed; 2 on bad
// arguments (without printing a result).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace pdtbench {
namespace {

constexpr const char* kWorkloads[] = {"olap_hot", "olap_cold",
                                      "htap_mixed", "ingest"};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "pdtbench: %s\n"
               "usage: pdtbench --workload <olap_hot|olap_cold|"
               "htap_mixed|ingest> [--seed N] [--seconds S] [--trace 0|1]\n"
               "                [--sf F] [--setup-reps R]\n",
               why.c_str());
  return 2;
}

// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

bool ParseArgs(int argc, char** argv, RunConfig* cfg, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag.rfind("--", 0) != 0) {
      *error = "unexpected argument " + flag;
      return false;
    }
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    char* rest = nullptr;
    if (flag == "--workload") {
      cfg->workload = value;
    } else if (flag == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), &rest, 10);
    } else if (flag == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), &rest);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      cfg->trace = value == "1";
    } else if (flag == "--sf") {
      cfg->scale_factor = std::strtod(value.c_str(), &rest);
    } else if (flag == "--setup-reps") {
      cfg->setup_reps = static_cast<int>(std::strtol(value.c_str(), &rest, 10));
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (rest != nullptr && (*rest != '\0' || rest == value.c_str())) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg->workload == w;
  if (!known) {
    *error = "unknown or missing --workload '" + cfg->workload + "'";
  } else if (!(cfg->seconds > 0 && cfg->seconds <= 600)) {
    *error = "--seconds must be in (0, 600]";
  } else if (!(cfg->scale_factor > 0 && cfg->scale_factor <= 1)) {
    *error = "--sf must be in (0, 1]";
  } else if (cfg->setup_reps < 2 || cfg->setup_reps > 9) {
    // The olap workloads turn the first set-up copy into their
    // checkpointed reference twin, so at least two are needed.
    *error = "--setup-reps must be in [2, 9]";
  }
  return error->empty();
}

void Print(const RunConfig& cfg, const RunResult& r) {
  const auto& metrics = cfg.trace ? r.layer : r.e2e;
  for (const auto& [name, m] : metrics) {
    std::printf("%s %s %s %s", cfg.workload.c_str(), name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(int argc, char** argv) {
  RunConfig cfg;
  std::string error;
  if (!ParseArgs(argc, argv, &cfg, &error)) return Usage(error);
  const std::string trace_path =
      std::string(kWorkDir) + "/trace-" + cfg.workload + ".json";
  std::printf("# pdtbench workload=%s seed=%llu seconds=%s trace=%d sf=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              Number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
              Number(cfg.scale_factor).c_str());
  std::fflush(stdout);

  SetTracing(cfg.trace);
  RunResult r;
  if (cfg.workload == "olap_hot") {
    RunOlap(cfg, /*cold=*/false, &r);
  } else if (cfg.workload == "olap_cold") {
    RunOlap(cfg, /*cold=*/true, &r);
  } else if (cfg.workload == "htap_mixed") {
    RunHtap(cfg, &r);
  } else {
    RunIngest(cfg, &r);
  }
  SetTracing(false);
  if (cfg.trace) {
    std::error_code ec;
    std::filesystem::create_directories(kWorkDir, ec);
    r.Expect(WriteTrace(trace_path),
             "could not write the trace to " + trace_path);
    r.notes.push_back("trace: " + std::to_string(SpanCount()) + " spans in " +
                      trace_path);
  }
  // Every reported metric must be a finite number.
  for (const auto& [name, m] : cfg.trace ? r.layer : r.e2e) {
    r.Expect(std::isfinite(m.value), "metric " + name + " is not finite");
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& e : r.errors) {
    std::printf("# FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "pdtbench %s: FAILED: %s\n", cfg.workload.c_str(),
                 e.c_str());
  }
  Print(cfg, r);
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace pdtbench

int main(int argc, char** argv) {
  try {
    return pdtbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdtbench: %s\n", e.what());
    return 1;
  }
}
