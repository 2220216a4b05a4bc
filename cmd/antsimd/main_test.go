package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/service"
)

func TestRoutesFlagPrintsTable(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-routes"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, rt := range service.RouteTable() {
		if !strings.Contains(got, rt.Method+" "+rt.Pattern) {
			t.Errorf("route table output missing %s %s:\n%s", rt.Method, rt.Pattern, got)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Fatal("run(-bogus) = nil, want error")
	}
}

func TestHelpFlagIsCleanExit(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h) = %v, want nil (usage is not a failure)", err)
	}
}

// TestDaemonEndToEnd boots the real daemon on an ephemeral port, drives a
// job through the Go client, and shuts it down via context cancellation —
// the same path SIGINT/SIGTERM take in main.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	dataDir := filepath.Join(dir, "data")
	ctx, cancel := context.WithCancel(context.Background())

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-workers", "2",
			"-cache", filepath.Join(dir, "cache"),
			"-data", dataDir,
			"-shutdown-timeout", "30s",
		}, &out)
	}()

	// Wait for the daemon to bind and publish its address.
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		cancel()
		t.Fatalf("daemon never wrote its address; output:\n%s", out.String())
	}

	client := service.NewClient("http://" + addr)
	if err := client.Healthz(ctx); err != nil {
		cancel()
		t.Fatalf("healthz: %v", err)
	}
	job, err := client.Submit(ctx, service.JobSpec{
		Kind: service.KindScenario, Scenario: "open", D: 8, N: 4, Trials: 2, Seed: 1,
	})
	if err != nil {
		cancel()
		t.Fatalf("submit: %v", err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil || final.State != service.StateDone {
		cancel()
		t.Fatalf("wait: %v, state %s (%s)", err, final.State, final.Error)
	}
	csv, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		cancel()
		t.Fatalf("result: %v", err)
	}

	// Graceful shutdown drains and exits cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit = %v; output:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	// The artifacts are durable: they ride in the data dir's WAL, which
	// a fresh service replays byte for byte.
	svc, err := service.New(service.Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := svc.Artifact(job.ID, "csv")
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err != nil || string(replayed) != string(csv) {
		t.Errorf("replayed artifact = %q, %v; want %q", replayed, err, csv)
	}
	for _, want := range []string{"listening on http://", "draining", "drained, bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("daemon output missing %q:\n%s", want, out.String())
		}
	}
}

// startDaemon boots a real daemon via run() on an ephemeral port and
// returns its base URL plus a shutdown func that asserts a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (baseURL string, shutdown func()) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "2",
		"-cache", filepath.Join(dir, "cache"),
		"-shutdown-timeout", "30s",
	}, extraArgs...)
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out) }()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			baseURL = "http://" + strings.TrimSpace(string(data))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if baseURL == "" {
		cancel()
		t.Fatalf("daemon never wrote its address; output:\n%s", out.String())
	}
	return baseURL, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit = %v; output:\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not shut down")
		}
	}
}

// TestJoinFederatesSweepJobs is the daemon-federation e2e: two workers
// -join a coordinator, a sweep job submitted to the coordinator is
// distributed across them, and the artifact is byte-identical to what the
// coordinator would produce standalone.
func TestJoinFederatesSweepJobs(t *testing.T) {
	coordURL, stopCoord := startDaemon(t)
	defer stopCoord()
	_, stopW1 := startDaemon(t, "-join", coordURL)
	defer stopW1()
	_, stopW2 := startDaemon(t, "-join", coordURL)
	defer stopW2()

	ctx := context.Background()
	client := service.NewClient(coordURL)
	deadline := time.Now().Add(15 * time.Second)
	for {
		ws, err := client.ClusterWorkers(ctx)
		if err == nil && len(ws) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never joined: %v %v", ws, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	job, err := client.Submit(ctx, service.JobSpec{Kind: service.KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("wait: %v, state %s (%s)", err, final.State, final.Error)
	}
	gotCSV, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the same sweep computed locally.
	sp, err := experiment.LookupSweep("s1")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := experiment.RunSweep(sp, experiment.Config{Seed: 1, Quick: true, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.Summary().CSV(); string(gotCSV) != want {
		t.Errorf("federated CSV differs from local CSV:\n%s\nvs\n%s", gotCSV, want)
	}

	// The work actually went to the fleet: the shard jobs live on the
	// workers, visible through the coordinator's registry addresses.
	shardJobs := 0
	ws, err := client.ClusterWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		jobs, err := service.NewClient(w.Addr).Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.Spec.Kind == service.KindShard {
				shardJobs++
			}
		}
	}
	if shardJobs == 0 {
		t.Error("no shard jobs landed on the joined workers — the sweep ran locally")
	}
}

// TestAdvertisedURL pins the worker-address resolution: explicit
// -advertise wins, the listen address is the default, and wildcard hosts
// — which the coordinator would dial back to its own loopback — are
// rejected instead of silently registered.
func TestAdvertisedURL(t *testing.T) {
	cases := []struct {
		advertise, actual, want, wantErr string
	}{
		{"", "127.0.0.1:8081", "http://127.0.0.1:8081", ""},
		{"http://workerbox:9000", "127.0.0.1:8081", "http://workerbox:9000", ""},
		{"workerbox:9000", "127.0.0.1:8081", "http://workerbox:9000", ""},
		{"", "[::]:8080", "", "not dialable"},
		{"", "0.0.0.0:8080", "", "not dialable"},
		{"http://0.0.0.0:8080", "127.0.0.1:1", "", "not dialable"},
		{"ftp://x", "127.0.0.1:1", "", "scheme"},
	}
	for _, tc := range cases {
		got, err := advertisedURL(tc.advertise, tc.actual)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("advertisedURL(%q, %q) err = %v, want %q", tc.advertise, tc.actual, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("advertisedURL(%q, %q) = %q, %v, want %q", tc.advertise, tc.actual, got, err, tc.want)
		}
	}

	// Flag-level guards: -advertise without -join, and a wildcard bind
	// with -join, both fail fast.
	var out strings.Builder
	if err := run(context.Background(), []string{"-advertise", "http://x:1"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-advertise only applies with -join") {
		t.Errorf("advertise without join err = %v", err)
	}
	if err := run(context.Background(), []string{"-addr", "0.0.0.0:0", "-join", "http://127.0.0.1:9"}, &out); err == nil ||
		!strings.Contains(err.Error(), "not dialable") {
		t.Errorf("wildcard bind with join err = %v", err)
	}
}
