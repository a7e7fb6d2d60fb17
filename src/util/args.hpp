// Command-line flags, and the one shape of every example and bench main:
//
//   int run(const tb::util::Args& args) {
//     const int n = args.get_int("n", 64, "grid extent");  // default, help
//     args.finish();  // before any work: an unread flag is an error
//     ...
//   }
//   int main(int argc, char** argv) {
//     return tb::util::run_main(argc, argv, run);
//   }
//
// Flags are `--name value`, `--name=value` or bare switches; a number
// must be one as a whole ("12abc" is not 12).  run_main turns `--help`
// into the listing of the flags read before finish() (exit 0, nothing
// runs), a std::invalid_argument into `prog: message` with exit 2, and
// any other std::exception (std::bad_alloc too) into exit 1.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tb::util {

/// Parsed command-line arguments with typed accessors and defaults.
class Args {
 public:
  /// What finish() throws on `--help`.  Not a std::exception, so no catch
  /// block of a main swallows it.
  struct Help {};

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
    help_ = kv_.erase("help") > 0;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    read_.insert(key);
    return kv_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def,
                                const std::string& help = {}) const {
    const std::string* v = value(key, def.empty() ? "\"\"" : def, help);
    return v != nullptr ? *v : def;
  }

  /// Integer flag of the default's type (int, std::int64_t, ...): a
  /// value outside that type's range is rejected like a malformed one.
  template <class T>
  [[nodiscard]] T get_int(const std::string& key, T def,
                          const std::string& help = {}) const {
    static_assert(std::is_integral_v<T>);
    const std::string* v = value(key, std::to_string(def), help);
    return v != nullptr ? parse_number<T>(key, *v, "an integer") : def;
  }

  [[nodiscard]] double get_double(const std::string& key, double def,
                                  const std::string& help = {}) const {
    std::ostringstream shown;
    shown << def;
    const std::string* v = value(key, shown.str(), help);
    return v != nullptr ? parse_number<double>(key, *v, "a number") : def;
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool def,
                              const std::string& help = {}) const {
    const std::string* v = value(key, def ? "true" : "false", help);
    if (v == nullptr) return def;
    if (*v == "true" || *v == "1" || *v == "yes") return true;
    if (*v == "false" || *v == "0" || *v == "no") return false;
    throw std::invalid_argument("--" + key + "=" + *v + " is not a boolean");
  }

  /// Validated enumeration flag (the shared --variant / --operator
  /// convention of the examples and benches): returns the value only if
  /// it is one of `allowed`, and throws std::invalid_argument naming the
  /// valid choices otherwise.
  [[nodiscard]] std::string get_choice(
      const std::string& key, const std::string& def,
      const std::vector<std::string>& allowed,
      const std::string& help = {}) const {
    const std::string names = join(allowed, "|");
    const std::string* v = value(
        key, def, (help.empty() ? "(" : help + " (") + names + ")");
    const std::string chosen = v != nullptr ? *v : def;
    if (std::find(allowed.begin(), allowed.end(), chosen) != allowed.end())
      return chosen;
    throw std::invalid_argument("--" + key + "=" + chosen +
                                " is not a valid choice (use " + names + ")");
  }

  /// Parses a comma-separated integer list, e.g. "--T=1,2,4".
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& def,
      const std::string& help = {}) const {
    std::vector<std::string> shown;
    for (const std::int64_t d : def) shown.push_back(std::to_string(d));
    const std::string* v = value(key, join(shown, ","), help);
    if (v == nullptr) return def;
    std::vector<std::int64_t> out;
    std::stringstream ss(*v);
    std::string item;
    while (std::getline(ss, item, ','))
      out.push_back(parse_number<std::int64_t>(key, item, "an integer"));
    return out;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// The check a main calls after its last flag read, before any work:
  /// throws Help on `--help`, and std::invalid_argument naming every flag
  /// nothing read (or a stray positional argument).
  void finish() const {
    finished_ = true;
    if (help_) throw Help{};
    std::vector<std::string> unknown;
    for (const auto& [key, v] : kv_)
      if (!read_.contains(key)) unknown.push_back("--" + key);
    if (!unknown.empty())
      throw std::invalid_argument(
          (unknown.size() == 1 ? "unknown flag " : "unknown flags ") +
          join(unknown, ", ") + " (--help lists the flags)");
    if (!positional_.empty())
      throw std::invalid_argument("unexpected argument '" +
                                  positional_.front() + "'");
  }

  [[nodiscard]] bool finished() const { return finished_; }

  /// The `--help` listing: each flag read so far, in reading order, with
  /// its default and help text.
  [[nodiscard]] std::string usage(const std::string& prog) const {
    std::size_t width = 0;
    for (const Declared& d : declared_)
      width = std::max(width, d.key.size() + d.def.size() + 7);
    std::string out = "usage: " + prog + " [--flag value]...\n";
    for (const Declared& d : declared_) {
      std::string line = "  --" + d.key + " " + d.def;
      if (!d.help.empty()) line.resize(width, ' ');
      out += line + d.help + "\n";
    }
    return out;
  }

 private:
  struct Declared {
    std::string key, def, help;
  };

  /// Records the read of --key for finish() and usage(), and returns its
  /// value: nullptr when the flag is absent or only --help was asked.
  const std::string* value(const std::string& key, const std::string& def,
                           const std::string& help) const {
    if (finished_)
      throw std::logic_error("--" + key + " read after Args::finish()");
    if (read_.insert(key).second) declared_.push_back({key, def, help});
    const auto it = kv_.find(key);
    return it == kv_.end() || help_ ? nullptr : &it->second;
  }

  static std::string join(const std::vector<std::string>& items,
                          const char* sep) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i)
      out += (i ? sep : "") + items[i];
    return out;
  }

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
  bool help_ = false;
  // Bookkeeping of the reads, so the accessors work on a const Args.
  mutable std::set<std::string> read_;
  mutable std::vector<Declared> declared_;
  mutable bool finished_ = false;
};

/// Runs `body` as a main (see the file comment).  A body that returns
/// without calling Args::finish() would have run its work on `--help`: a
/// bug in the main, reported with exit 1.
inline int run_main(int argc, const char* const* argv,
                    const std::function<int(const Args&)>& body) {
  std::string prog = argc > 0 ? argv[0] : "main";
  prog.erase(0, prog.find_last_of('/') + 1);
  const Args args(argc, argv);
  try {
    const int rc = body(args);
    if (args.finished()) return rc;
    throw std::logic_error("flags were never checked (Args::finish)");
  } catch (const Args::Help&) {
    std::fputs(args.usage(prog).c_str(), stdout);
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
    return 1;
  }
}

}  // namespace tb::util
