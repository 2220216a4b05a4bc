// Command antsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts experiment jobs (registered sweeps or
// single scenario configurations), executes them on a bounded worker pool
// reusing the sweep layer's sharded runner and content-addressed cache,
// streams per-point progress as NDJSON/SSE, and serves result artifacts
// byte-identical to what the equivalent antsim invocation emits.
//
// Usage:
//
//	antsimd -addr 127.0.0.1:8080 -workers 2 -cache .sweepcache
//	antsimd -addr 127.0.0.1:0 -addr-file antsimd.addr   # ephemeral port
//	antsimd -addr 127.0.0.1:8081 -join http://127.0.0.1:8080  # federate as a worker
//	antsimd -routes                                      # print the route table
//
// Daemons federate into clusters: a worker started with -join heartbeats
// into the coordinator's fleet registry, and a coordinator with live
// workers dispatches its sweep jobs across them (internal/cluster) —
// shard reassignment on worker failure, tail-shard work stealing, and a
// federated content-addressed cache — with artifacts byte-identical to a
// local run.
//
// With -data DIR the control plane is durable: every submission and event
// lands in a write-ahead log (with periodic snapshot compaction) before
// clients observe it, finished artifacts ride in the log frame of their
// job's done event, and a restarted daemon replays the directory so job ids, event logs and
// artifacts come back byte-identical — queued jobs re-enter the queue and
// jobs that were running at crash time re-execute from the cache.
//
// See docs/API.md for the full endpoint reference and DESIGN.md §7 for the
// service architecture. On SIGINT/SIGTERM the daemon drains: new
// submissions are rejected, queued jobs are cancelled, and running jobs
// get -shutdown-timeout to finish before being cancelled at their next
// point boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "antsimd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("antsimd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile  = fs.String("addr-file", "", "write the actual listen address to this file once bound")
		workers   = fs.Int("workers", 2, "job worker pool size (concurrent jobs)")
		queue     = fs.Int("queue", 64, "queued-job capacity; submissions beyond it get HTTP 503")
		cacheDir  = fs.String("cache", "", "content-addressed sweep-point cache directory (shared with antsim -cache)")
		dataDir   = fs.String("data", "", "durable state directory: WAL + snapshot of the job store, finished jobs' artifacts included (replayed on restart)")
		shutdown  = fs.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain budget for running jobs")
		routes    = fs.Bool("routes", false, "print the HTTP route table and exit")
		join      = fs.String("join", "", "join a coordinator antsimd's worker fleet (base URL); heartbeats keep the membership alive")
		advertise = fs.String("advertise", "", "with -join: the base URL the coordinator dials this worker back on (default http://<actual listen address>; required for wildcard binds like :8080)")
	)
	cliutil.SetUsage(fs, "Serves experiment jobs over HTTP: queue, worker pool, NDJSON/SSE progress streams, durable artifacts (see docs/API.md); -join federates this daemon into a coordinator's fleet, and daemons with joined workers distribute their sweep jobs across them",
		"antsimd -addr 127.0.0.1:8080 -workers 2 -cache .sweepcache",
		"antsimd -addr 127.0.0.1:8081 -join http://127.0.0.1:8080",
		"antsimd -routes")
	if ok, err := cliutil.Parse(fs, args); !ok {
		return err // nil after -h: usage already printed, clean exit
	}
	if *routes {
		return printRoutes(out)
	}
	var coordinator string
	if *join != "" {
		var err error
		if coordinator, err = service.NormalizeWorkerURL(*join); err != nil {
			return fmt.Errorf("-join: %w", err)
		}
	} else if *advertise != "" {
		return fmt.Errorf("-advertise only applies with -join")
	}

	svc, err := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheDir:   *cacheDir,
		DataDir:    *dataDir,
	})
	if err != nil {
		return err
	}
	// Every daemon can coordinate: once workers join its fleet, sweep jobs
	// are dispatched across them (internal/cluster) instead of run
	// locally. With no joined workers the distributor declines and
	// execution stays local, so a standalone daemon behaves exactly as
	// before.
	svc.SetDistributor(cluster.NewDistributor(func() []string {
		ws := svc.ClusterWorkers()
		addrs := make([]string, len(ws))
		for i, w := range ws {
			addrs[i] = w.Addr
		}
		return addrs
	}, *cacheDir, svc.Monitor()))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = svc.Close(context.Background()) // stop the worker pool; no jobs yet
		return err
	}
	actual := ln.Addr().String()
	selfURL := ""
	if coordinator != "" {
		selfURL, err = advertisedURL(*advertise, actual)
		if err != nil {
			ln.Close()
			_ = svc.Close(context.Background())
			return err
		}
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(actual+"\n"), 0o644); err != nil {
			ln.Close()
			_ = svc.Close(context.Background())
			return fmt.Errorf("write addr file: %w", err)
		}
	}
	fmt.Fprintf(out, "antsimd: listening on http://%s (workers=%d queue=%d)\n", actual, *workers, *queue)

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if coordinator != "" {
		// With a data directory the worker identity survives restarts, so
		// a worker that comes back on a new ephemeral port displaces its
		// stale fleet entry immediately instead of waiting out the TTL.
		var workerID string
		if *dataDir != "" {
			workerID, err = service.LoadOrCreateWorkerID(*dataDir)
		} else {
			workerID, err = service.NewWorkerID()
		}
		if err != nil {
			ln.Close()
			_ = svc.Close(context.Background())
			return err
		}
		fmt.Fprintf(out, "antsimd: joining fleet of %s as %s (id %s)\n", coordinator, selfURL, workerID)
		go joinLoop(ctx, coordinator, selfURL, workerID)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "antsimd: draining (timeout %s)\n", *shutdown)

	// Drain the service first so running jobs finish and event streams
	// reach their terminal event; only then shut the HTTP server down.
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdown)
	defer cancel()
	closeErr := svc.Close(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil && closeErr == nil {
		closeErr = err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) && closeErr == nil {
		closeErr = err
	}
	if closeErr != nil {
		return fmt.Errorf("shutdown: %w", closeErr)
	}
	fmt.Fprintln(out, "antsimd: drained, bye")
	return nil
}

// advertisedURL resolves the base URL a worker registers with the
// coordinator: the -advertise flag, or http://<listen address> when the
// flag is empty. A wildcard or unspecified host (":8080", "0.0.0.0",
// "[::]") is rejected — the coordinator would dial its own loopback — so
// multi-machine workers must advertise a reachable address explicitly.
func advertisedURL(advertise, actual string) (string, error) {
	raw := advertise
	if raw == "" {
		raw = "http://" + actual
	}
	norm, err := service.NormalizeWorkerURL(raw)
	if err != nil {
		return "", fmt.Errorf("-advertise: %w", err)
	}
	u, err := url.Parse(norm)
	if err != nil {
		return "", fmt.Errorf("-advertise: %w", err)
	}
	host := u.Hostname()
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return "", fmt.Errorf("advertised address %q is not dialable from a coordinator (wildcard host); pass -advertise http://<reachable-host>:%s", norm, u.Port())
	}
	return norm, nil
}

// joinLoop keeps this worker's fleet membership alive: an immediate join,
// then heartbeats at a third of the coordinator's TTL until ctx ends.
// Failures are retried on the same cadence — a coordinator restart simply
// re-admits the worker on its next beat, and a worker restart under the
// same persisted id displaces its stale entry on the first beat.
func joinLoop(ctx context.Context, coordinator, self, id string) {
	client := service.NewClient(coordinator)
	beat := service.DefaultWorkerTTL / 3
	join := func() {
		jctx, cancel := context.WithTimeout(ctx, beat)
		defer cancel()
		_, _ = client.Join(jctx, self, id)
	}
	join()
	ticker := time.NewTicker(beat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			join()
		}
	}
}

// printRoutes writes the HTTP route table, one endpoint per line.
func printRoutes(out io.Writer) error {
	width := 0
	for _, r := range service.RouteTable() {
		if n := len(r.Method) + 1 + len(r.Pattern); n > width {
			width = n
		}
	}
	for _, r := range service.RouteTable() {
		fmt.Fprintf(out, "%-*s  %s\n", width, r.Method+" "+r.Pattern, r.Summary)
	}
	return nil
}
