#include "fppn/histories.hpp"

#include <sstream>

#include "fppn/network.hpp"

namespace fppn {

bool ExecutionHistories::functionally_equal(const ExecutionHistories& other) const {
  if (channel_writes != other.channel_writes) {
    return false;
  }
  if (output_samples.size() != other.output_samples.size()) {
    return false;
  }
  for (const auto& [c, samples] : output_samples) {
    const auto it = other.output_samples.find(c);
    if (it == other.output_samples.end() || it->second.size() != samples.size()) {
      return false;
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      // Compare sample index and value; times may differ between the
      // zero-delay and the real-time semantics.
      if (samples[i].k != it->second[i].k || samples[i].value != it->second[i].value) {
        return false;
      }
    }
  }
  return true;
}

std::size_t ExecutionHistories::fingerprint() const {
  constexpr std::size_t kMix = 0x9e3779b97f4a7c15ULL;
  std::size_t h = 0;
  const auto mix = [&h](std::size_t x) { h ^= x + kMix + (h << 6) + (h >> 2); };
  for (const auto& [c, values] : channel_writes) {
    mix(c.value());
    mix(values.size());
    for (const Value& v : values) {
      mix(value_hash(v));
    }
  }
  for (const auto& [c, samples] : output_samples) {
    mix(c.value() * 31);
    for (const OutputSample& s : samples) {
      mix(static_cast<std::size_t>(s.k));
      mix(value_hash(s.value));
    }
  }
  return h;
}

std::string ExecutionHistories::diff(const ExecutionHistories& other,
                                     const Network& net) const {
  std::ostringstream os;
  for (const auto& [c, values] : channel_writes) {
    const auto it = other.channel_writes.find(c);
    if (it == other.channel_writes.end()) {
      os << "channel " << net.channel(c).name << " missing in other\n";
      continue;
    }
    if (values.size() != it->second.size()) {
      os << "channel " << net.channel(c).name << ": " << values.size() << " vs "
         << it->second.size() << " writes\n";
      continue;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != it->second[i]) {
        os << "channel " << net.channel(c).name << " write #" << i << ": "
           << values[i] << " vs " << it->second[i] << "\n";
        break;
      }
    }
  }
  for (const auto& [c, samples] : output_samples) {
    const auto it = other.output_samples.find(c);
    if (it == other.output_samples.end()) {
      os << "output " << net.channel(c).name << " missing in other\n";
      continue;
    }
    const auto& os2 = it->second;
    const std::size_t n = std::min(samples.size(), os2.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (samples[i].k != os2[i].k || samples[i].value != os2[i].value) {
        os << "output " << net.channel(c).name << " sample #" << i << ": ["
           << samples[i].k << "]=" << samples[i].value << " vs [" << os2[i].k
           << "]=" << os2[i].value << "\n";
        break;
      }
    }
    if (samples.size() != os2.size()) {
      os << "output " << net.channel(c).name << ": " << samples.size() << " vs "
         << os2.size() << " samples\n";
    }
  }
  return os.str();
}

}  // namespace fppn
