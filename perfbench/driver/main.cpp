// perfbench_driver: runs one benchmark workload through the library's
// public API and writes every measurement it took as one JSON file.
//
//   perfbench_driver --host
//       prints the host fingerprint (with the LLC the library detects)
//   perfbench_driver --prepare 1 --cases cases.json --work-dir DIR
//       computes and stores the reference solutions the cases need
//   perfbench_driver --workload ooc-jacobi --cases cases.json
//       --seconds 40 --trace 0 --work-dir DIR --out raw.json
//       runs and checks the requests
//
// The request list (--cases) is generated from the seed by
// perfbench/workloads.py; the driver sees only the generated inputs.
// perfbench/run.py turns the raw file into the end-to-end and per-layer
// metrics.  A measured run exits 0 only when it finished and every check
// passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/registry.hpp"
#include "topo/machine.hpp"
#include "util/args.hpp"

namespace perfbench {

std::map<std::string, double> registry_values() {
  std::map<std::string, double> out;
  for (const tb::obs::MetricRow& m : tb::obs::Registry::global().snapshot()) {
    out[m.name] = m.value;
    if (m.kind == tb::obs::MetricRow::Kind::kHistogram)
      out[m.name + ".count"] = static_cast<double>(m.count);
  }
  return out;
}

std::map<std::string, double> registry_diff(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    const double d = v - (it == before.end() ? 0.0 : it->second);
    if (d != 0.0) out[k] = d;
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t detected_llc_bytes() {
  return tb::topo::host_machine().shared_cache_bytes;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const tb::util::Args args(argc, argv);
  Options opt;
  opt.workload = args.get("workload", "");
  opt.cases = args.get("cases", "");
  opt.work_dir = args.get("work-dir", ".");
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  if (args.has("host")) {
    std::printf("%s\n", host_fingerprint_json().c_str());
    return 0;
  }
  if (args.get_int("prepare", 0) != 0) {
    try {
      prepare_references(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  const std::string out_path = args.get("out", "");
  if (out_path.empty() || opt.cases.empty()) {
    std::fprintf(stderr, "perfbench_driver: --out and --cases are required\n");
    return 2;
  }

  Recorder rec;
  rec.set_section("host", host_fingerprint_json());
  rec.set_section("workload", JsonObject::quote(opt.workload));
  int rc = 0;
  try {
    if (opt.workload == "ooc-jacobi" || opt.workload == "lbm-cavity") {
      run_workload(opt, rec);
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    rc = 1;
  }
  std::ofstream out(out_path);
  out << rec.dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return rc != 0 || rec.failed_checks() > 0 ? 1 : 0;
}
