// JSON scenario format: the config half of the scenario engine.
//
// One scenario file describes a whole batch of solver cases — operator,
// variant (concrete or "auto"), grid shape, step count, thread count,
// initial condition, material/geometry, physics knobs — with list-valued
// axes expanding into their cross product and repeat counts duplicating
// cases.  The ScenarioConfig manager parses and expands the file; the
// engine (scenario_engine.hpp) runs the expanded list through one
// core::SolverSession.  This replaces the per-example main()s: what used
// to be a new C++ file per workload is now a .json under scenarios/.
//
// Schema (all case keys optional; defaults shown):
//
//   {
//     "name": "sweep",                 // scenario id, tags every run row
//     "defaults": { ... },             // base case merged under each case
//     "cases": [
//       {
//         "operator": "jacobi",        // or "op"; jacobi|varcoef|box27|
//                                      // redblack|lbm|lbm:aa — or a list
//         "variant": "baseline",       // reference|baseline|pipelined|
//                                      // compressed|wavefront|auto|... list
//         "n": 32,                     // cube edge — or a list of edges
//         "shape": [nx, ny, nz],       // non-cubic shape (wins over "n")
//         "steps": 8,                  // time levels — or a list
//         "threads": 2,                // worker threads — or a list
//         "repeat": 1,                 // duplicates the expanded case
//         "initial": "pattern",        // pattern|uniform|hot-face
//         "geometry": "auto",          // auto|none|slab|fibers|cavity|
//                                      //   obstacle (see grids.hpp)
//         "omega": 1.0,                // lbm relaxation rate
//         "ulid": 0.05,                // lbm lid speed
//         "kfiber": 100.0,             // fibers conductivity (varcoef)
//         "name": "custom-id"          // overrides the generated case id
//       }
//     ]
//   }
//
// Unknown top-level sections route to registered IScenarioConsumer hooks
// (the CConfigManager/IConfigConsumer split), so subsystems can claim
// their own config blocks without this parser knowing them; an unclaimed
// unknown section is an error, as is an unknown key inside a case.  A
// file whose only content is consumer sections (e.g. a pure "cluster"
// sweep, scenario/cluster_section.hpp) may omit "cases" entirely;
// otherwise "cases" stays mandatory.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace tb::scenario {

/// One fully expanded case: scalars only, lists and defaults resolved.
struct CaseSpec {
  std::string name;                  ///< case id (generated when empty in
                                     ///< the file)
  std::string op = "jacobi";         ///< registry operator name
  std::string variant = "baseline";  ///< registry variant name (or meta)
  int nx = 32, ny = 32, nz = 32;
  int steps = 8;
  int threads = 2;
  int repeat_index = 0;  ///< 0-based index within the case's repeats
  int repeat_count = 1;  ///< total repeats of this case
  std::string initial = "pattern";
  std::string geometry = "auto";
  double omega = 1.0;    ///< lbm relaxation rate
  double ulid = 0.05;    ///< lbm lid speed (x component)
  double kfiber = 100.0; ///< fiber conductivity for geometry "fibers"
};

/// Consumer hook for scenario sections this parser does not own: a
/// subsystem registers one per top-level key it claims, and the manager
/// hands it the raw JSON value when a file carries that section.
class IScenarioConsumer {
 public:
  virtual ~IScenarioConsumer() = default;

  /// The top-level key this consumer owns (e.g. "telemetry").
  [[nodiscard]] virtual std::string_view section() const = 0;

  /// Called once per load with the section's value.  Throw to reject.
  virtual void consume(const util::json::Value& value) = 0;
};

/// Parses scenario files and expands their cases.  Not thread-safe;
/// re-entrant in the sense that any number of independent managers can
/// coexist (no globals).
class ScenarioConfig {
 public:
  /// Registers a consumer for its section.  The pointer is borrowed and
  /// must outlive the manager.  Throws std::invalid_argument when the
  /// section collides with a built-in key or another consumer.
  void register_consumer(IScenarioConsumer* consumer);

  /// Parses + expands `text`; `origin` labels error messages.  Replaces
  /// any previously loaded scenario.  Throws std::runtime_error on
  /// malformed JSON and std::invalid_argument on schema violations,
  /// including an expansion to more than 10000 cases.
  void load_text(const std::string& text,
                 const std::string& origin = "<string>");

  /// load_text over the contents of `path`.
  void load_file(const std::string& path);

  /// Scenario id ("name" key; the file stem is NOT implied — unnamed
  /// scenarios report "unnamed").
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The expanded case list, in document order: list axes unrolled as
  /// their cross product, defaults applied, repeats duplicated.
  [[nodiscard]] const std::vector<CaseSpec>& cases() const {
    return cases_;
  }

 private:
  std::string name_ = "unnamed";
  std::vector<CaseSpec> cases_;
  std::vector<IScenarioConsumer*> consumers_;
};

}  // namespace tb::scenario
