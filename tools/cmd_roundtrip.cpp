#include <cstdio>

#include "commands.hpp"

namespace fppn {
namespace tool {

int cmd_roundtrip(const Args& args) {
  const auto parsed = engine::load_network(*args.request.network_path);
  std::printf("%s", io::write_network(parsed.net, parsed.wcets).c_str());
  return 0;
}

}  // namespace tool
}  // namespace fppn
