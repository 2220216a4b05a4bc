//go:build unix

package service

import (
	"context"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// selfCPU returns the CPU time this process has used so far.
func selfCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestCancelledScenarioJobLeavesNoCompute: a cancelled scenario job stops
// at its next trial boundary and reads cancelled only once its compute has
// ended, so the process burns no CPU on it afterwards, and once the
// service closes no goroutine of the job is left.
func TestCancelledScenarioJobLeavesNoCompute(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A random walk rarely finds a target 4096 away, so each trial spends
	// its whole budget: about 100 ms at 2 ns a move. The job as a whole
	// would run for minutes.
	job, err := svc.Submit(JobSpec{Kind: KindScenario, Scenario: "open", Algo: "random-walk",
		D: 4096, N: 1, Budget: 50_000_000, Trials: 1000, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mustJob(t, svc, job.ID).State == StateRunning })
	time.Sleep(150 * time.Millisecond) // into the second trial, so the cancel lands mid-trial
	if _, err := svc.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, svc, job.ID); final.State != StateCancelled {
		t.Fatalf("state after cancel = %s (%s), want cancelled", final.State, final.Error)
	}
	start := selfCPU(t)
	time.Sleep(500 * time.Millisecond)
	if used := selfCPU(t) - start; used > 50*time.Millisecond {
		t.Errorf("the process used %s of CPU in the 500 ms after the job read cancelled; its compute outlived the cancel", used)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before the job", n, before)
	}
}
