/**
 * @file
 * Host-side measurements: wall and CPU clocks, peak resident memory,
 * and the same for child processes (the fleet's workers) via /proc.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <sys/types.h>

namespace perfbench {

/** Monotonic seconds. */
double wallSeconds();

/** User + system CPU seconds of this process (all threads). */
double cpuSeconds();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** User + system CPU seconds of process @p pid; 0 if unreadable. */
double processCpuSeconds(pid_t pid);

/** Peak resident set (VmHWM) of process @p pid, MB; 0 if unreadable. */
double processPeakRssMb(pid_t pid);

/** Hardware threads (at least 1). */
unsigned hostThreads();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
