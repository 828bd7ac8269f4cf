// The perfbench subcommands (one per source file).
#pragma once

#include "common.h"

namespace perfbench {

int cmd_gen_rmat(const Args& args);
int cmd_gen_ingest(const Args& args);
int cmd_pack(const Args& args);
int cmd_batch(const Args& args);
int cmd_gather(const Args& args);
int cmd_loadgen(const Args& args);
int cmd_replay_ingest(const Args& args);
int cmd_host(const Args& args);

}  // namespace perfbench
