#include "fppn/network.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace fppn {

BehaviorFactory behavior(std::function<void(JobContext&)> fn) {
  return [fn = std::move(fn)]() { return std::make_unique<LambdaBehavior>(fn); };
}

BehaviorFactory no_op_behavior() {
  return behavior([](JobContext&) {});
}

const ProcessDecl& Network::process(ProcessId p) const {
  if (!p.is_valid() || p.value() >= processes_.size()) {
    throw std::invalid_argument("network: process id out of range");
  }
  return processes_[p.value()];
}

const ChannelDecl& Network::channel(ChannelId c) const {
  if (!c.is_valid() || c.value() >= channels_.size()) {
    throw std::invalid_argument("network: channel id out of range");
  }
  return channels_[c.value()];
}

std::optional<ProcessId> Network::find_process(const std::string& name) const {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i].name == name) {
      return ProcessId{i};
    }
  }
  return std::nullopt;
}

std::optional<ChannelId> Network::find_channel(const std::string& name) const {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i].name == name) {
      return ChannelId{i};
    }
  }
  return std::nullopt;
}

bool Network::has_priority(ProcessId p1, ProcessId p2) const {
  return fp_.has_edge(NodeId(p1.value()), NodeId(p2.value()));
}

bool Network::priority_related(ProcessId p1, ProcessId p2) const {
  return has_priority(p1, p2) || has_priority(p2, p1);
}

std::vector<ChannelId> Network::internal_channels_of(ProcessId p) const {
  std::vector<ChannelId> out;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const ChannelDecl& c = channels_[i];
    if (c.scope == ChannelScope::kInternal && (c.writer == p || c.reader == p)) {
      out.push_back(ChannelId{i});
    }
  }
  return out;
}

std::optional<ProcessId> Network::user_of(ProcessId p) const {
  if (process(p).event.kind != EventKind::kSporadic) {
    return std::nullopt;
  }
  std::set<ProcessId> counterparts;
  for (const ChannelId c : internal_channels_of(p)) {
    const ChannelDecl& decl = channel(c);
    counterparts.insert(decl.writer == p ? decl.reader : decl.writer);
  }
  if (counterparts.size() != 1) {
    return std::nullopt;
  }
  const ProcessId u = *counterparts.begin();
  const EventSpec& uspec = process(u).event;
  if (uspec.kind != EventKind::kPeriodic) {
    return std::nullopt;
  }
  if (uspec.period > process(p).event.period) {
    return std::nullopt;  // T_u(p) <= T_p required (§III-A)
  }
  return u;
}

bool Network::in_schedulable_subclass(std::string* why) const {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const ProcessId p{i};
    if (processes_[i].event.kind != EventKind::kSporadic) {
      continue;
    }
    if (!user_of(p).has_value()) {
      if (why != nullptr) {
        *why = "sporadic process '" + processes_[i].name +
               "' lacks a unique periodic user with T_u <= T_p";
      }
      return false;
    }
  }
  return true;
}

Duration Network::hyperperiod() const {
  std::string why;
  if (!in_schedulable_subclass(&why)) {
    throw std::logic_error("hyperperiod undefined: " + why);
  }
  Duration h;
  bool first = true;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const ProcessId p{i};
    const EventSpec& spec = processes_[i].event;
    // In PN' a sporadic process contributes its server period = T_user.
    const Duration period = spec.kind == EventKind::kSporadic
                                ? process(*user_of(p)).event.period
                                : spec.period;
    h = first ? period : Duration::lcm(h, period);
    first = false;
  }
  if (first) {
    throw std::logic_error("hyperperiod undefined: empty network");
  }
  return h;
}

// ---------------------------------------------------------------- builder

ProcessId NetworkBuilder::add_process(const std::string& name, EventSpec spec,
                                      BehaviorFactory behavior_factory) {
  if (name.empty()) {
    throw std::invalid_argument("process name must not be empty");
  }
  if (net_.find_process(name).has_value()) {
    throw std::invalid_argument("duplicate process name '" + name + "'");
  }
  if (!behavior_factory) {
    throw std::invalid_argument("process '" + name + "' needs a behavior factory");
  }
  spec.validate();
  ProcessDecl decl;
  decl.name = name;
  decl.event = spec;
  decl.make_behavior = std::move(behavior_factory);
  net_.processes_.push_back(std::move(decl));
  net_.fp_.add_node();
  return ProcessId{net_.processes_.size() - 1};
}

ProcessId NetworkBuilder::periodic(const std::string& name, Duration period,
                                   Duration deadline, BehaviorFactory b) {
  return add_process(name, EventSpec{EventKind::kPeriodic, 1, period, deadline},
                     std::move(b));
}

ProcessId NetworkBuilder::multi_periodic(const std::string& name, int burst,
                                         Duration period, Duration deadline,
                                         BehaviorFactory b) {
  return add_process(name, EventSpec{EventKind::kPeriodic, burst, period, deadline},
                     std::move(b));
}

ProcessId NetworkBuilder::sporadic(const std::string& name, int burst, Duration period,
                                   Duration deadline, BehaviorFactory b) {
  return add_process(name, EventSpec{EventKind::kSporadic, burst, period, deadline},
                     std::move(b));
}

ChannelId NetworkBuilder::channel(const std::string& name, ChannelKind kind,
                                  ProcessId writer, ProcessId reader) {
  if (net_.find_channel(name).has_value()) {
    throw std::invalid_argument("duplicate channel name '" + name + "'");
  }
  (void)net_.process(writer);  // range checks
  (void)net_.process(reader);
  if (writer == reader) {
    throw std::invalid_argument("channel '" + name + "': writer == reader");
  }
  ChannelDecl decl;
  decl.name = name;
  decl.kind = kind;
  decl.scope = ChannelScope::kInternal;
  decl.writer = writer;
  decl.reader = reader;
  net_.channels_.push_back(std::move(decl));
  const ChannelId id{net_.channels_.size() - 1};
  net_.processes_[writer.value()].writes.push_back(id);
  net_.processes_[reader.value()].reads.push_back(id);
  return id;
}

ChannelId NetworkBuilder::buffered_fifo(const std::string& name, ProcessId writer,
                                        ProcessId reader, int capacity) {
  if (capacity < 2) {
    throw std::invalid_argument("buffered channel '" + name +
                                "': capacity must be >= 2 (1 is a plain fifo)");
  }
  const ChannelId id = channel(name, ChannelKind::kFifo, writer, reader);
  net_.channels_[id.value()].capacity = capacity;
  // Determinism of buffered pairs relies on the writer running first at
  // simultaneous invocations: install the FP edge here.
  fp_edges_.emplace_back(writer, reader);
  return id;
}

ChannelId NetworkBuilder::external_input(const std::string& name, ProcessId reader) {
  if (net_.find_channel(name).has_value()) {
    throw std::invalid_argument("duplicate channel name '" + name + "'");
  }
  (void)net_.process(reader);
  ChannelDecl decl;
  decl.name = name;
  decl.kind = ChannelKind::kFifo;
  decl.scope = ChannelScope::kExternalInput;
  decl.reader = reader;
  net_.channels_.push_back(std::move(decl));
  const ChannelId id{net_.channels_.size() - 1};
  net_.processes_[reader.value()].reads.push_back(id);
  return id;
}

ChannelId NetworkBuilder::external_output(const std::string& name, ProcessId writer) {
  if (net_.find_channel(name).has_value()) {
    throw std::invalid_argument("duplicate channel name '" + name + "'");
  }
  (void)net_.process(writer);
  ChannelDecl decl;
  decl.name = name;
  decl.kind = ChannelKind::kFifo;
  decl.scope = ChannelScope::kExternalOutput;
  decl.writer = writer;
  net_.channels_.push_back(std::move(decl));
  const ChannelId id{net_.channels_.size() - 1};
  net_.processes_[writer.value()].writes.push_back(id);
  return id;
}

NetworkBuilder& NetworkBuilder::priority(ProcessId higher, ProcessId lower) {
  (void)net_.process(higher);
  (void)net_.process(lower);
  if (higher == lower) {
    throw std::invalid_argument("functional priority: self-edge rejected");
  }
  fp_edges_.emplace_back(higher, lower);
  return *this;
}

NetworkBuilder& NetworkBuilder::auto_rate_monotonic_priorities() {
  // Record requested edges first; resolution happens in build(), after all
  // channels exist.
  auto_rm_ = true;
  return *this;
}

Network NetworkBuilder::build() && {
  // Install explicit FP edges.
  for (const auto& [hi, lo] : fp_edges_) {
    net_.fp_.add_edge(NodeId(hi.value()), NodeId(lo.value()));
  }
  // Rate-monotonic completion for channel-sharing pairs lacking an edge.
  if (auto_rm_) {
    for (const ChannelDecl& c : net_.channels_) {
      if (c.scope != ChannelScope::kInternal) {
        continue;
      }
      const ProcessId w = c.writer;
      const ProcessId r = c.reader;
      if (net_.priority_related(w, r)) {
        continue;
      }
      const Duration tw = net_.process(w).event.period;
      const Duration tr = net_.process(r).event.period;
      const bool writer_higher = tw < tr || (tw == tr && w < r);
      if (writer_higher) {
        net_.fp_.add_edge(NodeId(w.value()), NodeId(r.value()));
      } else {
        net_.fp_.add_edge(NodeId(r.value()), NodeId(w.value()));
      }
    }
  }
  // FP must be a DAG (Def. 2.1).
  if (!is_acyclic(net_.fp_)) {
    throw std::invalid_argument("functional priority graph is cyclic");
  }
  // FP must relate every channel-sharing pair:
  // (p1, p2) in C  =>  p1 -> p2 or p2 -> p1.
  for (const ChannelDecl& c : net_.channels_) {
    if (c.scope != ChannelScope::kInternal) {
      continue;
    }
    if (!net_.priority_related(c.writer, c.reader)) {
      throw std::invalid_argument(
          "channel '" + c.name + "' connects processes '" +
          net_.process(c.writer).name + "' and '" + net_.process(c.reader).name +
          "' with no functional priority between them");
    }
  }
  return std::move(net_);
}

}  // namespace fppn
