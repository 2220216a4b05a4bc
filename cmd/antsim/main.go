// Command antsim runs a single multi-agent search configuration and prints
// the outcome: the algorithm, the number of agents, the target placement,
// M_moves statistics over trials, and the algorithm's χ audit.
//
// Usage:
//
//	antsim -algo non-uniform -d 64 -n 16 -trials 20
//	antsim -algo uniform -d 128 -n 4 -ell 2
//	antsim -algo random-walk -d 32 -n 8 -budget 1000000
//
// Scenario mode runs the same single configuration on a named world/fault
// preset from the scenario registry (internal/scenario) instead of a
// placed open-plane target — restricted sectors, tori, obstacle fields,
// multi-target placements, agent fault models, and time-varying dynamics
// (drifting/blinking/expiring targets, flickering and rotating obstacle
// fields, the adaptive adversary, mixed machine colonies):
//
//	antsim -scenario list
//	antsim -scenario torus -d 32 -n 8
//	antsim -scenario torus:l=48 -algo random-walk
//	antsim -scenario crash:crash=0.001 -trials 50
//	antsim -scenario drift:v=2 -d 16 -trials 30
//	antsim -scenario adaptive-crash:b=3 -d 16 -n 8
//
// Rounds-only presets (heterogeneous colonies, the adaptive adversary)
// run on the synchronous rounds engine; -algo does not apply to them.
//
// Sweep mode runs a whole experiment grid (E1, E5, S1 or the scenario
// sweeps S2/S3) through the orchestration layer of internal/sweep, with
// per-point progress, an on-disk result cache, and incremental resume:
//
//	antsim -sweep e1 -cache .sweepcache -out e1_results
//	antsim -sweep e1 -cache .sweepcache -resume -out e1_results  # recomputes only missing points
//	antsim -sweep s2 -quick
//
// Distributed sweep mode fans the grid out across a fleet of antsimd
// workers (internal/cluster): this process is the coordinator — it
// consults its local cache first, ships only cache-miss points as shard
// jobs, survives worker failures by reassigning their shards, steals the
// tail shard from stragglers, and merges artifacts byte-identical to the
// local run. Ctrl-C drains the fleet at grid-point boundaries:
//
//	antsim -sweep s2 -fleet 127.0.0.1:8081,127.0.0.1:8082 -cache .sweepcache -out s2_results
//
// Synthesis mode searches the automata design space itself: per state
// budget, an annealing loop over machine specs (internal/synth), each
// candidate scored through the sweep layer against the D²/n + D lower
// bound — so every evaluation is a content-addressed cache point, the
// search is deterministic by seed, and a cancelled run resumes without
// re-executing finished evaluations. -fleet fans candidate batches out
// across antsimd workers with an identical trajectory:
//
//	antsim -synthesize -states 2-5 -generations 12 -cache .synthcache -out synth
//	antsim -synthesize -quick -seed 7
//	antsim -synthesize -states 3 -fleet 127.0.0.1:8081,127.0.0.1:8082 -cache .synthcache -resume -out synth
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/automata"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "antsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("antsim", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "non-uniform", "algorithm: non-uniform, uniform, feinerman, random-walk, spiral")
		d       = fs.Int64("d", 64, "target distance D")
		n       = fs.Int("n", 4, "number of agents")
		ell     = fs.Uint("ell", 1, "base-coin precision ℓ (probabilities ≥ 1/2^ℓ)")
		trials  = fs.Int("trials", 20, "number of independent trials")
		seed    = fs.Uint64("seed", 1, "root random seed")
		budget  = fs.Uint64("budget", 0, "per-agent move budget (0 = auto: 512·D²)")
		place   = fs.String("place", "uniform-ball", "target placement: corner, axis, uniform-ball, uniform-sphere")
		workers = fs.Int("workers", 0, "simulation worker bound (0 = GOMAXPROCS)")
		traceTo = fs.String("trace", "", "write a JSONL event trace of one extra run to this file")

		scnSpec = fs.String("scenario", "", "run on a scenario preset (name[:key=val,...]) instead of a placed target; \"list\" prints the registry")

		sweepID  = fs.String("sweep", "", "run an experiment grid instead of a single configuration: e1, e5, s1, s2 or s3")
		quick    = fs.Bool("quick", false, "sweep/synthesize mode: smaller grids and trial counts")
		cacheDir = fs.String("cache", "", "sweep/synthesize mode: content-addressed result cache directory")
		resume   = fs.Bool("resume", false, "sweep/synthesize mode: serve cached grid points instead of recomputing (requires -cache)")
		outPfx   = fs.String("out", "", "sweep/synthesize mode: write summary artifacts to <prefix>.json and <prefix>.csv")
		fleet    = fs.String("fleet", "", "sweep/synthesize mode: comma-separated antsimd worker URLs; distributes evaluation across them with this process as coordinator")

		synthesize  = fs.Bool("synthesize", false, "search the automata design space: anneal machine specs per state budget against the D²/n + D bound")
		states      = fs.String("states", "2-5", "synthesize mode: state-budget range \"min-max\" (or a single count)")
		generations = fs.Int("generations", 0, "synthesize mode: annealing generations per budget (0 = default)")
	)
	cliutil.SetUsage(fs, "Runs one multi-agent search configuration (algorithm, D, n, placement) and prints M_moves statistics plus the χ audit; -scenario re-runs it on any registered world/fault preset; -sweep runs a whole experiment grid with progress, caching and resume; -synthesize searches the automata design space against the lower bound; -fleet distributes either across antsimd workers; -trace writes a JSONL event log",
		"antsim -algo non-uniform -d 64 -n 16 -trials 20",
		"antsim -scenario torus:l=48 -d 16 -n 8",
		"antsim -sweep e1 -cache .sweepcache -resume -out e1_results",
		"antsim -sweep s2 -fleet 127.0.0.1:8081,127.0.0.1:8082",
		"antsim -synthesize -states 2-5 -cache .synthcache -out synth")
	if ok, err := cliutil.Parse(fs, args); !ok {
		return err // nil after -h: usage already printed, clean exit
	}
	// -trials and -n double as synthesis scoring overrides, but only when
	// given explicitly — otherwise the quick-aware defaults apply.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *synthesize {
		if *sweepID != "" || *scnSpec != "" {
			return fmt.Errorf("-synthesize is its own mode; drop -sweep/-scenario")
		}
		return runSynthesize(synthOptions{
			states:      *states,
			generations: *generations,
			seed:        *seed,
			quick:       *quick,
			workers:     *workers,
			trials:      *trials,
			trialsSet:   explicit["trials"],
			agents:      *n,
			agentsSet:   explicit["n"],
			cacheDir:    *cacheDir,
			resume:      *resume,
			outPrefix:   *outPfx,
			fleet:       *fleet,
		}, out)
	}
	if *states != "2-5" || *generations != 0 {
		return fmt.Errorf("-states/-generations apply to synthesize mode only (set -synthesize)")
	}
	if *sweepID != "" {
		if *scnSpec != "" {
			return fmt.Errorf("-scenario applies to single-configuration mode only; the scenario grids are -sweep s2 and -sweep s3")
		}
		return runSweep(*sweepID, experiment.Config{
			Seed:     *seed,
			Quick:    *quick,
			Workers:  *workers,
			CacheDir: *cacheDir,
			Resume:   *resume,
		}, *fleet, *outPfx, out)
	}
	if *resume || *cacheDir != "" || *outPfx != "" || *quick || *fleet != "" {
		return fmt.Errorf("-cache/-resume/-out/-quick/-fleet apply to sweep and synthesize modes only (set -sweep or -synthesize)")
	}
	if *scnSpec == "list" {
		return listScenarios(out)
	}
	if *scnSpec != "" && *traceTo != "" {
		return fmt.Errorf("-trace is not supported in scenario mode")
	}

	placement, err := parsePlacement(*place)
	if err != nil {
		return err
	}
	factory, audit, err := experiment.BuildAlgorithm(*algo, *d, *n, *ell)
	if err != nil {
		return err
	}
	moveBudget := *budget
	if moveBudget == 0 {
		moveBudget = experiment.DefaultMoveBudget(*d)
	}

	var st *sim.TrialStats
	var scn scenario.Scenario
	if *scnSpec != "" {
		scn, err = scenario.Build(*scnSpec, *d)
		if err != nil {
			return err
		}
		if scn.RoundsOnly() {
			// Heterogeneous colonies and the adaptive adversary need the
			// synchronous rounds engine; -algo does not apply there.
			return runRoundsScenario(scn, *d, *n, *trials, *seed, *budget, *workers, out)
		}
		run := experiment.ScenarioRun{Scenario: *scnSpec, Algo: *algo, D: *d, N: *n, Ell: *ell, Budget: moveBudget}
		var rep *sweep.Report
		if rep, err = sweep.Run(run.Grid(*trials), run.Trial, sweep.Options{Seed: *seed, Shards: 1, Workers: *workers}); err == nil {
			st = experiment.FoldTrials(rep.Points)
		}
	} else {
		st, err = sim.RunPlacedTrials(sim.Config{NumAgents: *n, MoveBudget: moveBudget, Workers: *workers}, placement, *d, factory, *trials, *seed)
	}
	if err != nil {
		return err
	}
	if *traceTo != "" {
		if err := writeTrace(*traceTo, placement, *d, *n, moveBudget, *workers, factory, *seed); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace:       %s\n", *traceTo)
	}

	fmt.Fprintf(out, "algorithm:   %s\n", *algo)
	fmt.Fprintf(out, "D:           %d\n", *d)
	fmt.Fprintf(out, "agents:      %d\n", *n)
	if *scnSpec != "" {
		fmt.Fprintf(out, "scenario:    %s — %s\n", scn.Spec, scn.Summary)
		if scn.DynamicTargets != nil {
			fmt.Fprintf(out, "world:       %s, dynamic target schedule\n", scn.WorldName())
		} else {
			fmt.Fprintf(out, "world:       %s, %d target(s)\n", scn.WorldName(), len(scn.Targets))
		}
		if scn.Faults.Enabled() {
			fmt.Fprintf(out, "faults:      crash=%g delay=%d\n", scn.Faults.CrashProb, scn.Faults.MaxStartDelay)
		}
	} else {
		fmt.Fprintf(out, "placement:   %s\n", placement)
	}
	fmt.Fprintf(out, "trials:      %d\n", *trials)
	fmt.Fprintf(out, "found:       %.0f%%\n", st.FoundFrac*100)
	fmt.Fprintf(out, "chi audit:   %s\n", audit)
	if len(st.Moves) > 0 {
		s, err := stats.Summarize(st.Moves)
		if err != nil {
			return err
		}
		bound := float64(*d)*float64(*d)/float64(*n) + float64(*d)
		fmt.Fprintf(out, "M_moves:     mean=%.0f ±%.0f (95%% CI), median=%.0f, min=%.0f, max=%.0f\n",
			s.Mean, s.CI95, s.Median, s.Min, s.Max)
		fmt.Fprintf(out, "bound:       D²/n + D = %.0f (ratio %.2f)\n", bound, s.Mean/bound)
	}
	return nil
}

// runRoundsScenario runs a rounds-only scenario preset (heterogeneous
// colonies, the adaptive adversary) on the synchronous engine and prints
// FoundRound statistics. Machines come from the scenario roster when it
// has one, otherwise agents run the unbiased random walk.
func runRoundsScenario(scn scenario.Scenario, d int64, n, trials int, seed, rounds uint64, workers int, out io.Writer) error {
	if rounds == 0 {
		rounds = uint64(d*d) * 64
	}
	cfg := scn.ApplyRounds(sim.RoundsConfig{
		NumAgents: n,
		Rounds:    rounds,
		Workers:   workers,
	})
	cfg.Machine = automata.RandomWalk()
	st, err := sim.RunRoundsTrials(cfg, trials, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "engine:      synchronous rounds (rounds-only preset; -algo not applicable)\n")
	fmt.Fprintf(out, "D:           %d\n", d)
	fmt.Fprintf(out, "agents:      %d\n", n)
	fmt.Fprintf(out, "scenario:    %s — %s\n", scn.Spec, scn.Summary)
	fmt.Fprintf(out, "world:       %s, %d target(s)\n", scn.WorldName(), len(scn.Targets))
	if len(scn.Machines) > 0 {
		fmt.Fprintf(out, "colony:      %d machine families, round-robin\n", len(scn.Machines))
	}
	if scn.Faults.Enabled() {
		if scn.Faults.Adaptive() {
			fmt.Fprintf(out, "adversary:   crash-nearest, budget %d, every %d round(s), p=%g\n",
				scn.Faults.CrashBudget, scn.Faults.CrashEvery, scn.Faults.CrashProb)
		} else {
			fmt.Fprintf(out, "faults:      crash=%g delay=%d\n", scn.Faults.CrashProb, scn.Faults.MaxStartDelay)
		}
	}
	fmt.Fprintf(out, "rounds:      %d per trial\n", rounds)
	fmt.Fprintf(out, "trials:      %d\n", st.Trials)
	fmt.Fprintf(out, "found:       %.0f%%\n", st.FoundFrac*100)
	if st.Crashed > 0 {
		fmt.Fprintf(out, "crashed:     %.1f agents/trial\n", st.Crashed)
	}
	if len(st.Rounds) > 0 {
		s, err := stats.Summarize(st.Rounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "FoundRound:  mean=%.0f ±%.0f (95%% CI), median=%.0f, min=%.0f, max=%.0f\n",
			s.Mean, s.CI95, s.Median, s.Min, s.Max)
	}
	return nil
}

// runSweep executes one experiment grid through internal/sweep: per-point
// progress lines, the rendered tables, run accounting (throughput, cache
// hits), and optional JSON/CSV summary artifacts. With a fleet, the grid
// is dispatched across remote antsimd workers instead (internal/cluster)
// and the merged artifacts are byte-identical to the local run's. Ctrl-C
// cancels either mode at grid-point boundaries, draining remote workers.
func runSweep(id string, cfg experiment.Config, fleet, outPrefix string, out io.Writer) error {
	if cfg.Resume && cfg.CacheDir == "" {
		return fmt.Errorf("-resume needs -cache")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sp, err := experiment.LookupSweep(id)
	if err != nil {
		return err
	}
	g := sp.Grid(cfg)
	fmt.Fprintf(out, "sweep:       %s — %s\n", sp.Name, sp.Title)
	fmt.Fprintf(out, "grid:        %s v%d, %d points, %d trials/point, seed %d\n",
		g.Name, g.Version, g.Size(), g.Trials, cfg.Seed)
	if cfg.CacheDir != "" {
		mode := "recompute (cache write-only)"
		if cfg.Resume {
			mode = "resume"
		}
		fmt.Fprintf(out, "cache:       %s (%s)\n", cfg.CacheDir, mode)
	}

	// Progress events arrive from worker goroutines; serialize the writes.
	var mu sync.Mutex
	progressLine := func(done, total int, point sweep.Point, status string) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(out, "  [%*d/%d] %s — %s\n", len(fmt.Sprint(total)), done, total, point, status)
	}

	var tables []*experiment.Table
	var rep *sweep.Report
	if fleet != "" {
		c, err := cluster.New(cluster.Config{
			Workers:  strings.Split(fleet, ","),
			CacheDir: cfg.CacheDir,
			Resume:   cfg.Resume,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fleet:       %s\n", strings.Join(c.Workers(), ", "))
		spec := service.JobSpec{Kind: service.KindShard, Sweep: sp.Name, Quick: cfg.Quick, Seed: cfg.Seed, Workers: cfg.Workers}
		d, err := c.Dispatch(ctx, spec, func(p cluster.Progress) {
			status := "computed by " + p.Worker
			switch {
			case p.Worker == "":
				status = "local cache"
			case p.Cached:
				status = "cached on " + p.Worker
			}
			progressLine(p.Done, p.Total, p.Point, status)
		})
		if err != nil {
			return err
		}
		rep = d.Report
		if tables, err = sp.Tables(rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ndispatch:    %d shards over %d workers: %d shipped, %d local hits, %d remote hits, %d reassigned, %d stolen\n",
			d.Stats.Shards, d.Stats.Workers, d.Stats.Shipped, d.Stats.LocalHits, d.Stats.RemoteHits, d.Stats.Reassigned, d.Stats.Stolen)
		if len(d.Stats.Failed) > 0 {
			fmt.Fprintf(out, "failed:      %s\n", strings.Join(d.Stats.Failed, ", "))
		}
	} else {
		progress := func(p sweep.Progress) {
			status := "computed"
			if p.Cached {
				status = "cached"
			}
			progressLine(p.Done, p.Total, p.Point, status)
		}
		tables, rep, err = experiment.RunSweepContext(ctx, sp, cfg, progress)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	for _, tb := range tables {
		fmt.Fprintln(out, tb.Render())
	}
	s := rep.Summary()
	fmt.Fprintf(out, "points:      %d computed, %d cached\n", rep.Computed, rep.CacheHits)
	fmt.Fprintf(out, "throughput:  %.1f points/s (%.2fs total)\n", s.PointsPerSec, s.ElapsedSec)
	if outPrefix != "" {
		jsonPath, csvPath, err := s.WriteArtifacts(outPrefix)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "artifacts:   %s, %s\n", jsonPath, csvPath)
	}
	return nil
}

// listScenarios prints the scenario registry as an aligned table.
func listScenarios(out io.Writer) error {
	presets := scenario.Presets()
	width := 0
	for _, p := range presets {
		if len(p.Name) > width {
			width = len(p.Name)
		}
	}
	for _, p := range presets {
		fmt.Fprintf(out, "%-*s  %s\n", width, p.Name, p.Summary)
		if p.Params != "" {
			fmt.Fprintf(out, "%-*s  params: %s\n", width, "", p.Params)
		}
	}
	fmt.Fprintf(out, "\nevery preset also accepts crash=<prob> and delay=<rounds>\n")
	return nil
}

func parsePlacement(s string) (sim.Placement, error) {
	switch s {
	case "corner":
		return sim.PlaceCorner, nil
	case "axis":
		return sim.PlaceAxis, nil
	case "uniform-ball":
		return sim.PlaceUniformBall, nil
	case "uniform-sphere":
		return sim.PlaceUniformSphere, nil
	default:
		return 0, fmt.Errorf("unknown placement %q", s)
	}
}

// writeTrace runs one additional instance with event recording and writes
// the JSONL trace to path.
func writeTrace(path string, placement sim.Placement, d int64, n int, budget uint64, workers int, factory sim.Factory, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	rec := trace.NewRecorder(f)
	target, err := placement.Pick(d, rng.New(seed))
	if err != nil {
		f.Close()
		return err
	}
	_, runErr := sim.Run(sim.Config{
		NumAgents:   n,
		Target:      target,
		HasTarget:   true,
		MoveBudget:  budget,
		Workers:     workers,
		HookFactory: rec.HookFor,
	}, factory, rng.New(seed+1))
	if err := rec.Flush(); runErr == nil {
		runErr = err
	}
	if err := f.Close(); runErr == nil {
		runErr = err
	}
	return runErr
}
