#include "scenario/scenario_config.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

namespace tb::scenario {

namespace json = util::json;

namespace {

// Case keys this parser owns.  Anything else inside a case (or the
// defaults object) is a typo the user should hear about immediately.
const char* const kCaseKeys[] = {"name",    "op",      "operator", "variant",
                                 "n",       "shape",   "steps",    "threads",
                                 "repeat",  "initial", "geometry", "omega",
                                 "ulid",    "kfiber"};

bool known_case_key(const std::string& key) {
  return std::find_if(std::begin(kCaseKeys), std::end(kCaseKeys),
                      [&](const char* k) { return key == k; }) !=
         std::end(kCaseKeys);
}

void check_choice(const char* key, const std::string& value,
                  std::initializer_list<const char*> valid) {
  for (const char* v : valid)
    if (value == v) return;
  std::ostringstream os;
  os << "scenario: \"" << key << "\": \"" << value << "\" is not one of ";
  bool first = true;
  for (const char* v : valid) {
    os << (first ? "" : "|") << v;
    first = false;
  }
  throw std::invalid_argument(os.str());
}

int positive_int(const char* key, const json::Value& v) {
  const int n = v.as_int();
  if (n < 1)
    throw std::invalid_argument(std::string("scenario: \"") + key +
                                "\" must be >= 1");
  return n;
}

/// Applies one scalar (already de-listed) key to the spec.  "repeat" is
/// handled by the caller; "shape" wins over "n" regardless of order, so
/// apply() records whether it saw one.
void apply_key(CaseSpec& spec, bool& saw_shape, const std::string& key,
               const json::Value& v) {
  if (key == "name") {
    spec.name = v.as_string();
  } else if (key == "op" || key == "operator") {
    spec.op = v.as_string();
  } else if (key == "variant") {
    spec.variant = v.as_string();
  } else if (key == "n") {
    if (saw_shape) return;  // explicit shape wins
    const int n = positive_int("n", v);
    spec.nx = spec.ny = spec.nz = n;
  } else if (key == "shape") {
    const json::Array& a = v.as_array();
    if (a.size() != 3)
      throw std::invalid_argument(
          "scenario: \"shape\" must be a [nx, ny, nz] triple");
    spec.nx = positive_int("shape", a[0]);
    spec.ny = positive_int("shape", a[1]);
    spec.nz = positive_int("shape", a[2]);
    saw_shape = true;
  } else if (key == "steps") {
    spec.steps = positive_int("steps", v);
  } else if (key == "threads") {
    spec.threads = positive_int("threads", v);
  } else if (key == "initial") {
    spec.initial = v.as_string();
    check_choice("initial", spec.initial, {"pattern", "uniform", "hot-face"});
  } else if (key == "geometry") {
    spec.geometry = v.as_string();
    check_choice("geometry", spec.geometry,
                 {"auto", "none", "slab", "fibers", "cavity", "obstacle"});
  } else if (key == "omega") {
    spec.omega = v.as_number();
  } else if (key == "ulid") {
    spec.ulid = v.as_number();
  } else if (key == "kfiber") {
    spec.kfiber = v.as_number();
  } else {
    throw std::invalid_argument("scenario: unknown case key \"" + key +
                                "\" (check for typos)");
  }
}

/// Keys whose value may be a list, expanded as a cross product.  "shape"
/// deliberately is NOT one: a [nx, ny, nz] array is one shape, not a
/// sweep — sweeps of shapes use multiple case objects.
bool sweepable(const std::string& key) {
  return key == "op" || key == "operator" || key == "variant" ||
         key == "n" || key == "steps" || key == "threads";
}

/// Generated case id: op/variant/NXxNYxNZ/sSTEPS/tTHREADS, plus #k for
/// repeats.  Stable across runs (no timestamps), so run rows of the same
/// scenario diff cleanly.
std::string generate_name(const CaseSpec& spec) {
  std::ostringstream os;
  os << spec.op << '/' << spec.variant << '/' << spec.nx << 'x' << spec.ny
     << 'x' << spec.nz << "/s" << spec.steps << "/t" << spec.threads;
  return os.str();
}

/// Bounds what "repeat" and sweep lists make the loader allocate.
constexpr std::size_t kMaxCases = 10000;

/// Recursive cross-product expansion over the sweepable keys of one
/// merged case object.  `entries` is the merged (defaults-then-case)
/// key/value list; `axis` indexes the entry currently being unrolled.
void expand(const json::Object& entries, std::size_t axis, CaseSpec spec,
            bool saw_shape, bool swept, int repeat,
            std::vector<CaseSpec>& out) {
  for (std::size_t e = axis; e < entries.size(); ++e) {
    const std::string& key = entries[e].first;
    const json::Value& v = entries[e].second;
    if (key == "repeat") {
      repeat = positive_int("repeat", v);
      continue;
    }
    if (!known_case_key(key))
      throw std::invalid_argument("scenario: unknown case key \"" + key +
                                  "\" (check for typos)");
    if (v.is_array() && sweepable(key)) {
      const json::Array& values = v.as_array();
      if (values.empty())
        throw std::invalid_argument("scenario: \"" + key +
                                    "\" sweep list must not be empty");
      for (const json::Value& item : values) {
        CaseSpec branch = spec;
        bool branch_shape = saw_shape;
        apply_key(branch, branch_shape, key, item);
        expand(entries, e + 1, branch, branch_shape,
               /*swept=*/values.size() > 1 || swept, repeat, out);
      }
      return;  // the recursion finished the remaining keys
    }
    apply_key(spec, saw_shape, key, v);
  }

  // An explicit name labels the case; when a sweep expanded it into
  // several, the generated id is appended so run rows stay unique.
  const bool explicit_name = !spec.name.empty();
  std::string base = explicit_name ? spec.name : generate_name(spec);
  if (explicit_name && swept) {
    base += '/';
    base += generate_name(spec);
  }
  if (out.size() + static_cast<std::size_t>(repeat) > kMaxCases)
    throw std::invalid_argument("scenario: expands to more than " +
                                std::to_string(kMaxCases) + " cases");
  spec.repeat_count = repeat;
  for (int r = 0; r < repeat; ++r) {
    spec.repeat_index = r;
    spec.name = repeat > 1 ? base + "#" + std::to_string(r) : base;
    out.push_back(spec);
  }
}

/// Empty stand-in range for scenarios without a "cases" array.
const json::Array kNoCases{};

}  // namespace

void ScenarioConfig::register_consumer(IScenarioConsumer* consumer) {
  if (consumer == nullptr)
    throw std::invalid_argument(
        "ScenarioConfig::register_consumer: null consumer");
  const std::string_view section = consumer->section();
  if (section == "name" || section == "defaults" || section == "cases")
    throw std::invalid_argument(
        "ScenarioConfig: section \"" + std::string(section) +
        "\" is a built-in scenario key");
  for (const IScenarioConsumer* c : consumers_)
    if (c->section() == section)
      throw std::invalid_argument("ScenarioConfig: section \"" +
                                  std::string(section) +
                                  "\" already has a consumer");
  consumers_.push_back(consumer);
}

void ScenarioConfig::load_text(const std::string& text,
                               const std::string& origin) {
  const json::Value root = json::parse(text, origin);
  const json::Object& top = root.as_object();

  std::string name = "unnamed";
  std::vector<CaseSpec> cases;
  const json::Value* defaults = nullptr;
  const json::Value* case_list = nullptr;
  bool consumed_section = false;

  for (const auto& [key, value] : top) {
    if (key == "name") {
      name = value.as_string();
    } else if (key == "defaults") {
      (void)value.as_object();  // type check up front
      defaults = &value;
    } else if (key == "cases") {
      (void)value.as_array();
      case_list = &value;
    } else {
      IScenarioConsumer* owner = nullptr;
      for (IScenarioConsumer* c : consumers_)
        if (c->section() == key) owner = c;
      if (owner == nullptr)
        throw std::invalid_argument(
            "scenario: unknown top-level section \"" + key +
            "\" and no consumer claims it");
      owner->consume(value);
      consumed_section = true;
    }
  }

  // "cases" stays mandatory for plain scenarios, but a file that only
  // feeds consumer sections (e.g. a pure cluster-sweep scenario) is
  // complete without solver cases.
  if (case_list == nullptr && !consumed_section)
    throw std::invalid_argument("scenario: missing \"cases\" array (" +
                                origin + ")");

  for (const json::Value& case_value :
       case_list != nullptr ? case_list->as_array() : kNoCases) {
    // Merge defaults under the case with last-wins key replacement (a
    // scalar case key must fully shadow a list-valued default, not just
    // be applied after its expansion).  "op" is normalized to
    // "operator" so the alias shadows too.
    json::Object merged;
    const auto upsert = [&merged](const std::string& key,
                                  const json::Value& value) {
      const std::string norm = key == "op" ? "operator" : key;
      for (auto& kv : merged)
        if (kv.first == norm) {
          kv.second = value;
          return;
        }
      merged.emplace_back(norm, value);
    };
    if (defaults != nullptr)
      for (const auto& kv : defaults->as_object())
        upsert(kv.first, kv.second);
    for (const auto& kv : case_value.as_object())
      upsert(kv.first, kv.second);
    expand(merged, 0, CaseSpec{}, /*saw_shape=*/false, /*swept=*/false,
           /*repeat=*/1, cases);
  }
  if (case_list != nullptr && cases.empty())
    throw std::invalid_argument("scenario: \"cases\" expanded to nothing (" +
                                origin + ")");

  name_ = std::move(name);
  cases_ = std::move(cases);
}

void ScenarioConfig::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("ScenarioConfig: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  load_text(ss.str(), path);
}

}  // namespace tb::scenario
