// Minimal command-line flag parser for examples and bench drivers.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Every flag is stored as given: a flag no accessor asks for is silently
// ignored, and nothing reports it.  A number flag must be a number as a
// whole ("12abc" is not 12); the typed accessors throw
// std::invalid_argument naming the flag otherwise.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tb::util {

/// Parsed command-line arguments with typed accessors and defaults.
class Args {
 public:
  Args(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        positional_.push_back(std::move(a));
        continue;
      }
      a.erase(0, 2);
      const auto eq = a.find('=');
      if (eq != std::string::npos) {
        kv_[a.substr(0, eq)] = a.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[a] = argv[++i];
      } else {
        kv_[a] = "true";  // boolean switch
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_number<std::int64_t>(key, it->second, "an integer");
  }

  [[nodiscard]] double get_double(const std::string& key, double def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_number<double>(key, it->second, "a number");
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  /// Validated enumeration flag (the shared --variant / --operator
  /// convention of the examples and benches): returns the value only if
  /// it is one of `allowed`, and throws std::invalid_argument naming the
  /// valid choices otherwise.
  [[nodiscard]] std::string get_choice(
      const std::string& key, const std::string& def,
      const std::vector<std::string>& allowed) const {
    const std::string value = get(key, def);
    for (const std::string& a : allowed)
      if (value == a) return value;
    std::ostringstream os;
    os << "--" << key << "=" << value << " is not a valid choice (use ";
    for (std::size_t i = 0; i < allowed.size(); ++i)
      os << (i ? "|" : "") << allowed[i];
    os << ")";
    throw std::invalid_argument(os.str());
  }

  /// Parses a comma-separated integer list, e.g. "--T=1,2,4".
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, std::vector<std::int64_t> def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::vector<std::int64_t> out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ','))
      out.push_back(parse_number<std::int64_t>(key, item, "an integer"));
    return out;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// The whole of `text` as a T, or std::invalid_argument naming --key.
  template <class T>
  [[nodiscard]] static T parse_number(const std::string& key,
                                      const std::string& text,
                                      const char* what) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
      throw std::invalid_argument("--" + key + "=" + text + " is not " +
                                  what);
    return value;
  }

  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// The flag set every example shares, parsed once instead of copy-pasted
/// seven times: problem size, step count, thread count, the registry
/// selectors, and the scenario-file escape hatch that routes a CLI run
/// through the JSON scenario engine.
///
/// This layer carries RAW values only — `variant`/`op` are untouched
/// strings because validating them against the registry is core's job
/// (core::configure_from_args / core::make_solver), and util cannot
/// depend on core.  Seed the struct with the example's defaults, then
/// parse():
///
///   util::StandardFlags flags;
///   flags.n = 128; flags.steps = 64; flags.threads = 2;
///   flags.parse(args);
///   if (!flags.scenario.empty()) return run_scenario_file(flags.scenario);
struct StandardFlags {
  int n = 32;            ///< --n: cubic grid extent (boundary included)
  int steps = 8;         ///< --steps: time levels to advance
  int threads = 2;       ///< --threads (alias --t): worker thread count
  std::string variant;   ///< --variant: registry name, "" = example default
  std::string op;        ///< --operator: registry name, "" = example default
  std::string scenario;  ///< --scenario <file>: delegate to the engine
  /// --topology: cluster fabric of the modeled scaling runs.  Raw string
  /// for the same reason as variant/op — topo::make_fabric validates it;
  /// the default is the paper's non-blocking fat-tree.
  std::string topology = "fat-tree";
  int ranks = 0;  ///< --ranks: modeled rank count (0 = example default)

  void parse(const Args& args) {
    n = static_cast<int>(args.get_int("n", n));
    steps = static_cast<int>(args.get_int("steps", steps));
    // --t predates --threads in several examples; accept both, with the
    // spelled-out form winning when a caller passes the pair.
    threads = static_cast<int>(args.get_int("t", threads));
    threads = static_cast<int>(args.get_int("threads", threads));
    variant = args.get("variant", variant);
    op = args.get("operator", op);
    scenario = args.get("scenario", scenario);
    topology = args.get("topology", topology);
    ranks = static_cast<int>(args.get_int("ranks", ranks));
  }
};

}  // namespace tb::util
