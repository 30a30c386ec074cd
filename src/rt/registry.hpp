// Generic name-keyed factory registry, shared by the scheduling-strategy
// and runtime-backend registries so add/lookup/error behavior cannot
// drift between them.
//
// Interface is the abstract product type; Error is the exception thrown
// for unknown names (must be constructible from std::string); `kind` is
// the human word used in error messages ("strategy", "runtime").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fppn {
namespace detail {

template <class Interface, class Error>
class NameRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Interface>()>;

  explicit NameRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers a factory. Throws std::invalid_argument when the name is
  /// empty, not lowercase/digits/dashes, already taken, or the factory is
  /// null. The character restriction is load-bearing, not cosmetic: names
  /// become cache-entry file names, schedule-entry tokens and command-line
  /// words, so whitespace or '/' would corrupt those downstream formats.
  void add(const std::string& name, Factory factory) {
    if (name.empty()) {
      throw std::invalid_argument(kind_ + " registry: empty name");
    }
    for (const char c : name) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-')) {
        throw std::invalid_argument(kind_ + " registry: name '" + name +
                                    "' must use only lowercase letters, digits and "
                                    "dashes (names become file names and manifest "
                                    "tokens)");
      }
    }
    if (!factory) {
      throw std::invalid_argument(kind_ + " registry: null factory for '" + name + "'");
    }
    if (!factories_.emplace(name, std::move(factory)).second) {
      throw std::invalid_argument(kind_ + " registry: duplicate name '" + name + "'");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return factories_.count(name) != 0;
  }

  /// All registered names, sorted — the authoritative list for --help.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) {
      (void)factory;
      out.push_back(name);  // std::map iteration is already sorted
    }
    return out;
  }

  /// Instantiates the named product. Throws Error (listing every
  /// registered name) when the name is not registered.
  [[nodiscard]] std::unique_ptr<Interface> create(const std::string& name) const {
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::ostringstream msg;
      msg << "unknown " << kind_ << " '" << name << "'; available:";
      for (const std::string& n : names()) {
        msg << ' ' << n;
      }
      throw Error(msg.str());
    }
    return it->second();
  }

 private:
  std::string kind_;
  std::map<std::string, Factory> factories_;
};

}  // namespace detail
}  // namespace fppn
