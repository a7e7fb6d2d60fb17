// Shared declarations of the benchmark driver (see main.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "record.hpp"

namespace perfbench {

struct Options {
  std::string workload;  ///< ooc-jacobi | lbm-cavity
  std::string cases;     ///< generated request list (scenario JSON)
  std::string work_dir;  ///< scratch space inside the checkout
  double seconds = 10.0; ///< closed-loop measurement window
  bool trace = false;    ///< per-layer run: telemetry, spans, probes
};

/// Flat view of obs::Registry::global(): counter and gauge values,
/// histogram sums, and histogram sample counts under "<name>.count".
[[nodiscard]] std::map<std::string, double> registry_values();

/// after - before, keeping only the names that moved.
[[nodiscard]] std::map<std::string, double> registry_diff(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before);

/// High-water resident set of this process [MiB].
[[nodiscard]] double peak_rss_mib();

/// Last-level cache bytes as the library detects it.
[[nodiscard]] std::size_t detected_llc_bytes();

/// Host fingerprint stored with every result: CPU model, nproc, LLC,
/// SIMD ISA, build type.
[[nodiscard]] std::string host_fingerprint_json();

/// Host calibration (traced runs): STREAM-copy bandwidth at 1 and
/// `threads` threads (the workload's own count) over arrays >= 4x the
/// LLC, and L1-resident row kernel rates.  Recorded as the "calibration"
/// section.
void calibrate_host(Recorder& rec, int threads);

/// Computes and stores the reference solution of every request of the
/// case file that the store lacks (see oracle_store.hpp).  Runs in its
/// own process before the measured one, so the measured process's peak
/// resident set is the workload's alone.
void prepare_references(const Options& opt);

/// Runs the workload: ooc-jacobi through ScenarioEngine::run_case,
/// lbm-cavity through SolverSession::solve; traced runs then probe every
/// layer directly (see workload.cpp).
void run_workload(const Options& opt, Recorder& rec);

/// The dist layer probe: the 8-rank backend agreement check and one
/// small traced dist:jacobi request, recorded as a ladder request row.
void run_dist_probe(Recorder& rec, long long id);

/// Event-engine weak-scaling sweeps on fat-tree, torus and cloud up to
/// 10^4 ranks, recorded as the "sweeps" section.
void run_sweep_probe(Recorder& rec);

}  // namespace perfbench
