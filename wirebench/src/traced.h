#ifndef WIREBENCH_TRACED_H_
#define WIREBENCH_TRACED_H_

#include "common.h"

namespace wirebench {

/// The traced run: replays the workload's streams over the wire for the
/// server's cache counters, then in process with a span around every call
/// into a program module, and prints the per-layer metrics.
int RunTraced(const Options& options, Workload& workload,
              const Dataset& dataset);

}  // namespace wirebench

#endif  // WIREBENCH_TRACED_H_
