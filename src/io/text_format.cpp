#include "io/text_format.hpp"

#include <charconv>
#include <map>
#include <sstream>
#include <vector>

#include "rt/rational.hpp"

namespace fppn::io {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') {
      break;  // comment until end of line
    }
    tokens.push_back(tok);
  }
  return tokens;
}

/// A whole-token integer of type Int; a value outside Int is an error,
/// never wrapped.
template <class Int = std::int64_t>
Int parse_int(const std::string& text) {
  Int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("not an integer in range: '" + text + "'");
  }
  return value;
}

/// "key=value" pairs after the positional part of a process statement.
std::map<std::string, std::string> parse_kv(const std::vector<std::string>& tokens,
                                            std::size_t from, std::size_t line) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == tokens[i].size()) {
      throw ParseError(line, "expected key=value, got '" + tokens[i] + "'");
    }
    kv.emplace(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
  return kv;
}

}  // namespace

Duration parse_duration(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) {
    return Duration(Rational(parse_int(text)));
  }
  const std::int64_t num = parse_int(text.substr(0, slash));
  const std::int64_t den = parse_int(text.substr(slash + 1));
  try {
    return Duration(Rational(num, den));
  } catch (const RationalError& e) {  // a zero or unnegatable denominator
    throw std::invalid_argument("bad duration '" + text + "': " + e.what());
  }
}

ParsedNetwork parse_network(std::istream& in) {
  NetworkBuilder builder;
  std::map<std::string, ProcessId> by_name;
  std::map<ProcessId, Duration> wcets;
  bool auto_rm = false;

  const auto lookup = [&](const std::string& name, std::size_t line) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw ParseError(line, "unknown process '" + name + "'");
    }
    return it->second;
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& stmt = tokens[0];
    try {
      if (stmt == "process") {
        if (tokens.size() < 3) {
          throw ParseError(lineno, "process needs a name and a kind");
        }
        const std::string& name = tokens[1];
        const std::string& kind = tokens[2];
        const auto kv = parse_kv(tokens, 3, lineno);
        const auto need = [&](const char* key) -> const std::string& {
          const auto it = kv.find(key);
          if (it == kv.end()) {
            throw ParseError(lineno, std::string("process '") + name +
                                         "' missing " + key + "=");
          }
          return it->second;
        };
        const Duration period = parse_duration(need("period"));
        const Duration deadline = parse_duration(need("deadline"));
        const int burst = kv.count("burst") != 0 ? parse_int<int>(kv.at("burst")) : 1;
        ProcessId p;
        if (kind == "periodic") {
          p = builder.multi_periodic(name, burst, period, deadline,
                                     no_op_behavior());
        } else if (kind == "sporadic") {
          if (kv.count("burst") == 0) {
            throw ParseError(lineno, "sporadic process needs burst=");
          }
          p = builder.sporadic(name, burst, period, deadline, no_op_behavior());
        } else {
          throw ParseError(lineno, "unknown process kind '" + kind + "'");
        }
        by_name.emplace(name, p);
        if (kv.count("wcet") != 0) {
          wcets.emplace(p, parse_duration(kv.at("wcet")));
        }
      } else if (stmt == "channel") {
        if ((tokens.size() != 6 && tokens.size() != 7) || tokens[4] != "->") {
          throw ParseError(lineno,
                           "expected: channel <fifo|blackboard> <name> <writer> "
                           "-> <reader> [capacity=N]");
        }
        std::optional<int> capacity;
        if (tokens.size() == 7) {
          const auto kv = parse_kv(tokens, 6, lineno);
          if (kv.size() != 1 || kv.count("capacity") == 0) {
            throw ParseError(lineno, "only capacity=N is allowed after the reader");
          }
          capacity = parse_int<int>(kv.at("capacity"));
        }
        const ChannelKind kind = [&] {
          if (tokens[1] == "fifo") {
            return ChannelKind::kFifo;
          }
          if (tokens[1] == "blackboard") {
            return ChannelKind::kBlackboard;
          }
          throw ParseError(lineno, "unknown channel kind '" + tokens[1] + "'");
        }();
        if (capacity.has_value() && *capacity > 1) {
          if (kind != ChannelKind::kFifo) {
            throw ParseError(lineno, "only fifo channels can be buffered");
          }
          builder.buffered_fifo(tokens[2], lookup(tokens[3], lineno),
                                lookup(tokens[5], lineno), *capacity);
        } else {
          builder.channel(tokens[2], kind, lookup(tokens[3], lineno),
                          lookup(tokens[5], lineno));
        }
      } else if (stmt == "input") {
        if (tokens.size() != 4 || tokens[2] != "->") {
          throw ParseError(lineno, "expected: input <name> -> <process>");
        }
        builder.external_input(tokens[1], lookup(tokens[3], lineno));
      } else if (stmt == "output") {
        if (tokens.size() != 4 || tokens[2] != "<-") {
          throw ParseError(lineno, "expected: output <name> <- <process>");
        }
        builder.external_output(tokens[1], lookup(tokens[3], lineno));
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
        throw ParseError(lineno, "unknown statement '" + stmt + "'");
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

ParsedNetwork parse_network_string(const std::string& text) {
  std::istringstream is(text);
  return parse_network(is);
}

std::string write_network(const Network& net, const WcetMap& wcets) {
  std::ostringstream os;
  os << "# fppn network (" << net.process_count() << " processes, "
     << net.channel_count() << " channels)\n";
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    const ProcessDecl& p = net.process(ProcessId{i});
    os << "process " << p.name << " "
       << (p.event.kind == EventKind::kSporadic ? "sporadic" : "periodic");
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
