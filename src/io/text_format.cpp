#include "io/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "rt/rational.hpp"

namespace fppn::io {
namespace {

/// The characters `std::istream >> std::string` skips in the "C" locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Splits `line` into whitespace-separated tokens (views into `line`),
/// stopping at a token that starts with '#' (comment until end of line).
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t at = 0;
  for (;;) {
    while (at < line.size() && is_space(line[at])) {
      ++at;
    }
    if (at == line.size() || line[at] == '#') {
      return;
    }
    const std::size_t begin = at;
    while (at < line.size() && !is_space(line[at])) {
      ++at;
    }
    tokens.push_back(line.substr(begin, at - begin));
  }
}

/// A whole-token integer of type Int; a value outside Int is an error,
/// never wrapped.
template <class Int = std::int64_t>
Int parse_int(std::string_view text) {
  Int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("not an integer in range: '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

Duration parse_duration(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    return Duration(Rational(parse_int(text)));
  }
  const std::int64_t num = parse_int(text.substr(0, slash));
  const std::int64_t den = parse_int(text.substr(slash + 1));
  try {
    return Duration(Rational(num, den));
  } catch (const RationalError& e) {  // a zero or unnegatable denominator
    throw std::invalid_argument("bad duration '" + std::string(text) + "': " + e.what());
  }
}

namespace {

/// "key=value" pairs after the positional part of a statement, in line
/// order. A repeated key keeps its first value.
class KeyValues {
 public:
  void parse(const std::vector<std::string_view>& tokens, std::size_t from,
             std::size_t line) {
    pairs_.clear();
    for (std::size_t i = from; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const auto eq = tok.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 == tok.size()) {
        throw ParseError(line, "expected key=value, got '" + std::string(tok) + "'");
      }
      pairs_.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
  }
  /// The first value given for `key`, or null.
  [[nodiscard]] const std::string_view* find(std::string_view key) const {
    for (const auto& [k, v] : pairs_) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> pairs_;
};

ParsedNetwork parse_text(std::string_view text) {
  NetworkBuilder builder;
  std::map<std::string, ProcessId, std::less<>> by_name;
  std::map<ProcessId, Duration> wcets;
  bool auto_rm = false;

  const auto lookup = [&](std::string_view name, std::size_t line) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw ParseError(line, "unknown process '" + std::string(name) + "'");
    }
    return it->second;
  };

  std::vector<std::string_view> tokens;
  KeyValues kv;
  std::size_t lineno = 0;
  // Lines as std::getline splits them: a last line without a newline
  // still counts, an empty text after the last newline does not.
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    const std::string_view line = text.substr(at, nl - at);
    at = nl + 1;
    ++lineno;
    tokenize(line, tokens);
    if (tokens.empty()) {
      continue;
    }
    const std::string_view stmt = tokens[0];
    try {
      if (stmt == "process") {
        if (tokens.size() < 3) {
          throw ParseError(lineno, "process needs a name and a kind");
        }
        const std::string name(tokens[1]);
        const std::string_view kind = tokens[2];
        kv.parse(tokens, 3, lineno);
        const auto need = [&](const char* key) {
          const std::string_view* value = kv.find(key);
          if (value == nullptr) {
            throw ParseError(lineno, std::string("process '") + name +
                                         "' missing " + key + "=");
          }
          return *value;
        };
        const Duration period = parse_duration(need("period"));
        const Duration deadline = parse_duration(need("deadline"));
        const std::string_view* burst_text = kv.find("burst");
        const int burst = burst_text != nullptr ? parse_int<int>(*burst_text) : 1;
        ProcessId p;
        if (kind == "periodic") {
          p = builder.multi_periodic(name, burst, period, deadline,
                                     no_op_behavior());
        } else if (kind == "sporadic") {
          if (burst_text == nullptr) {
            throw ParseError(lineno, "sporadic process needs burst=");
          }
          p = builder.sporadic(name, burst, period, deadline, no_op_behavior());
        } else {
          throw ParseError(lineno, "unknown process kind '" + std::string(kind) + "'");
        }
        by_name.emplace(name, p);
        if (const std::string_view* wcet = kv.find("wcet")) {
          wcets.emplace(p, parse_duration(*wcet));
        }
      } else if (stmt == "channel") {
        if ((tokens.size() != 6 && tokens.size() != 7) || tokens[4] != "->") {
          throw ParseError(lineno,
                           "expected: channel <fifo|blackboard> <name> <writer> "
                           "-> <reader> [capacity=N]");
        }
        std::optional<int> capacity;
        if (tokens.size() == 7) {
          kv.parse(tokens, 6, lineno);
          const std::string_view* value = kv.find("capacity");
          if (value == nullptr) {
            throw ParseError(lineno, "only capacity=N is allowed after the reader");
          }
          capacity = parse_int<int>(*value);
        }
        const ChannelKind kind = [&] {
          if (tokens[1] == "fifo") {
            return ChannelKind::kFifo;
          }
          if (tokens[1] == "blackboard") {
            return ChannelKind::kBlackboard;
          }
          throw ParseError(lineno, "unknown channel kind '" + std::string(tokens[1]) + "'");
        }();
        if (capacity.has_value() && *capacity > 1) {
          if (kind != ChannelKind::kFifo) {
            throw ParseError(lineno, "only fifo channels can be buffered");
          }
          builder.buffered_fifo(std::string(tokens[2]), lookup(tokens[3], lineno),
                                lookup(tokens[5], lineno), *capacity);
        } else {
          builder.channel(std::string(tokens[2]), kind, lookup(tokens[3], lineno),
                          lookup(tokens[5], lineno));
        }
      } else if (stmt == "input") {
        if (tokens.size() != 4 || tokens[2] != "->") {
          throw ParseError(lineno, "expected: input <name> -> <process>");
        }
        builder.external_input(std::string(tokens[1]), lookup(tokens[3], lineno));
      } else if (stmt == "output") {
        if (tokens.size() != 4 || tokens[2] != "<-") {
          throw ParseError(lineno, "expected: output <name> <- <process>");
        }
        builder.external_output(std::string(tokens[1]), lookup(tokens[3], lineno));
      } else if (stmt == "priority") {
        if (tokens.size() == 2 && tokens[1] == "auto-rm") {
          auto_rm = true;
        } else if (tokens.size() == 4 && tokens[2] == ">") {
          builder.priority(lookup(tokens[1], lineno), lookup(tokens[3], lineno));
        } else {
          throw ParseError(lineno,
                           "expected: priority <hi> > <lo>  or  priority auto-rm");
        }
      } else {
        throw ParseError(lineno, "unknown statement '" + std::string(stmt) + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw ParseError(lineno, e.what());
    }
  }

  if (auto_rm) {
    builder.auto_rate_monotonic_priorities();
  }
  ParsedNetwork out;
  out.net = std::move(builder).build();
  out.wcets = std::move(wcets);
  out.wcets_complete = out.wcets.size() == out.net.process_count();
  return out;
}

}  // namespace

ParsedNetwork parse_network(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse_text(text.str());
}

ParsedNetwork parse_network_string(const std::string& text) { return parse_text(text); }

std::string write_network(const Network& net, const WcetMap& wcets) {
  std::ostringstream os;
  os << "# fppn network (" << net.process_count() << " processes, "
     << net.channel_count() << " channels)\n";
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    const ProcessDecl& p = net.process(ProcessId{i});
    os << "process " << p.name << " " << to_string(p.event.kind);
    if (p.event.burst != 1 || p.event.kind == EventKind::kSporadic) {
      os << " burst=" << p.event.burst;
    }
    os << " period=" << p.event.period.to_string()
       << " deadline=" << p.event.deadline.to_string();
    if (const auto it = wcets.find(ProcessId{i}); it != wcets.end()) {
      os << " wcet=" << it->second.to_string();
    }
    os << "\n";
  }
  for (std::size_t i = 0; i < net.channel_count(); ++i) {
    const ChannelDecl& c = net.channel(ChannelId{i});
    switch (c.scope) {
      case ChannelScope::kInternal:
        os << "channel " << to_string(c.kind) << " " << c.name << " "
           << net.process(c.writer).name << " -> " << net.process(c.reader).name;
        if (c.is_buffered()) {
          os << " capacity=" << c.capacity;
        }
        os << "\n";
        break;
      case ChannelScope::kExternalInput:
        os << "input " << c.name << " -> " << net.process(c.reader).name << "\n";
        break;
      case ChannelScope::kExternalOutput:
        os << "output " << c.name << " <- " << net.process(c.writer).name << "\n";
        break;
    }
  }
  for (const auto& [u, v] : net.priority_graph().edges()) {
    os << "priority " << net.process(ProcessId{u.value()}).name << " > "
       << net.process(ProcessId{v.value()}).name << "\n";
  }
  return os.str();
}

}  // namespace fppn::io
