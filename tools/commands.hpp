// The fppn_tool subcommand entry points, one module per command
// (tools/cmd_*.cpp). Each takes the fully parsed Args and returns the
// process exit code: 0 ok, 1 hard error (thrown, rendered by main),
// 2 bad usage, 3 infeasible / deadline miss, 4 fuzz mismatch.
#pragma once

#include "tool_common.hpp"

namespace fppn {
namespace tool {

int cmd_check(const Args& args);
int cmd_taskgraph(const Args& args);
int cmd_schedule(const Args& args);
int cmd_simulate(const Args& args);
int cmd_roundtrip(const Args& args);
int cmd_cache_gc(const Args& args);
int cmd_fuzz(const Args& args);

}  // namespace tool
}  // namespace fppn
