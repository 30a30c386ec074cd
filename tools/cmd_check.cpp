#include <cstdio>

#include "commands.hpp"

namespace fppn {
namespace tool {

int cmd_check(const Args& args) {
  const auto parsed = engine::load_network(*args.request.network_path);
  std::printf("ok: %zu processes, %zu channels\n", parsed.net.process_count(),
              parsed.net.channel_count());
  std::string why;
  if (parsed.net.in_schedulable_subclass(&why)) {
    std::printf("schedulable subclass: yes; hyperperiod %s ms\n",
                parsed.net.hyperperiod().to_string().c_str());
  } else {
    std::printf("schedulable subclass: NO (%s)\n", why.c_str());
  }
  return 0;
}

}  // namespace tool
}  // namespace fppn
