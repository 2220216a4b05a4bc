package main

import (
	"syscall"
	"time"
)

// clock reads a monotonic time in nanoseconds. Each workload is timed on
// one clock: ops, set-up, the op loop's elapsed time and the traced run's
// spans alike.
type clock func() time.Duration

var wallBase = time.Now()

// wallClock is the wall clock. It times the fleet workload, whose ops
// mostly wait: on HTTP round trips, queues and the dispatcher's pollers.
func wallClock() time.Duration { return time.Since(wallBase) }

// cpuClock is the CPU time the process has consumed, on all its threads.
// It times the search and swarm workloads, whose ops only compute: with
// one client and one engine worker (engineWorkers) it is the op's latency
// on a core of its own. The wall clock of a shared virtual machine also
// counts the time the hypervisor gives the vCPU to other guests (steal
// time). On a 2-vCPU VM, 24 identical search ops read 1.46–2.38 s on the
// wall clock but 1.38–1.76 s of CPU time, and steal time made
// up most of the difference.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// engineWorkers is the worker count the search and swarm workloads give
// the engines. One worker keeps an op on one thread, so its CPU time is its
// latency, and leaves the other cores to the Go runtime. On the same VM a
// compute loop on two threads did 1064–2049 units of work a second, one
// second to the next; on one thread it did 1990–2281.
const engineWorkers = 1
