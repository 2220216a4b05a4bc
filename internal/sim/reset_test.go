package sim

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
)

type auditHook struct{ moves, returns, founds int }

func (h *auditHook) OnMove(grid.Point, uint64)  { h.moves++ }
func (h *auditHook) OnReturn()                  { h.returns++ }
func (h *auditHook) OnFound(grid.Point, uint64) { h.founds++ }

// envConfigChecks maps EVERY EnvConfig field to an assertion that the
// field's value survived Env.Reset. TestEnvResetCoversEveryConfigField
// reflects over EnvConfig and fails if a field has no entry here — so
// adding a config field without threading it through Reset (and through
// this table) cannot slip past the suite. Reset assigns a struct literal,
// which zeroes unlisted Env fields but silently drops unlisted config
// fields; this table is the guard on the second half.
var envConfigChecks = map[string]func(t *testing.T, e *Env, cfg EnvConfig){
	"Target": func(t *testing.T, e *Env, cfg EnvConfig) {
		if !e.targets.Hit(cfg.Target) {
			t.Errorf("Target %v lost by Reset", cfg.Target)
		}
	},
	"HasTarget": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.targets.Empty() {
			t.Error("HasTarget dropped: target set is empty")
		}
	},
	"Targets": func(t *testing.T, e *Env, cfg EnvConfig) {
		for _, p := range cfg.Targets {
			if !e.targets.Hit(p) {
				t.Errorf("Targets entry %v lost by Reset", p)
			}
		}
	},
	"World": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.world != cfg.World {
			t.Errorf("World = %v, want %v", e.world, cfg.World)
		}
	},
	// The dynamic schedules are mutually exclusive with the static World
	// and Target fields the audit config populates, so these two checks
	// build their own env instead of inspecting the shared one.
	"DynamicWorld": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.dynWorld != cfg.DynamicWorld {
			t.Error("DynamicWorld not carried by Reset")
		}
		d := NewEnv(EnvConfig{DynamicWorld: FixedWorld{W: Quadrant{}}, Src: cfg.Src})
		if d.dynWorld == nil || d.world != World(Quadrant{}) {
			t.Error("DynamicWorld not threaded through Reset's initial sync")
		}
	},
	"DynamicTargets": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.dynTargets != cfg.DynamicTargets {
			t.Error("DynamicTargets not carried by Reset")
		}
		pt := grid.Point{X: 1, Y: 1}
		d := NewEnv(EnvConfig{DynamicTargets: FixedTargets{Points: []grid.Point{pt}}, Src: cfg.Src})
		if d.dynTargets == nil || !d.targets.Hit(pt) {
			t.Error("DynamicTargets not threaded through Reset's initial sync")
		}
	},
	"MoveBudget": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.budget != cfg.MoveBudget {
			t.Errorf("MoveBudget = %d, want %d", e.budget, cfg.MoveBudget)
		}
	},
	"Src": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.src != cfg.Src {
			t.Error("Src not carried by Reset")
		}
	},
	"CrashProb": func(t *testing.T, e *Env, cfg EnvConfig) {
		want := FaultModel{CrashProb: cfg.CrashProb}.crashThreshold()
		if e.crashThresh != want {
			t.Errorf("CrashProb threshold = %d, want %d", e.crashThresh, want)
		}
	},
	"FaultSrc": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.faultSrc != cfg.FaultSrc {
			t.Error("FaultSrc not carried by Reset")
		}
	},
	"StartDelaySteps": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.steps != cfg.StartDelaySteps {
			t.Errorf("Steps = %d, want the start delay %d", e.steps, cfg.StartDelaySteps)
		}
	},
	"TrackVisits": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.visited != cfg.TrackVisits {
			t.Error("TrackVisits not carried by Reset")
		}
		if cfg.TrackVisits != nil && !cfg.TrackVisits.Contains(grid.Origin) {
			t.Error("Reset did not record the origin visit")
		}
	},
	"RecordPath": func(t *testing.T, e *Env, cfg EnvConfig) {
		if cfg.RecordPath && (len(e.path) != 1 || e.path[0] != grid.Origin) {
			t.Errorf("RecordPath path = %v, want [origin]", e.path)
		}
	},
	"Hook": func(t *testing.T, e *Env, cfg EnvConfig) {
		if e.hook != cfg.Hook {
			t.Error("Hook not carried by Reset")
		}
	},
}

// envFieldsKnownToReset lists every field of Env itself. Reset rebuilds the
// struct with a literal (so unlisted fields are zeroed, which is correct
// for run state), but a new field that must survive across Resets — like
// the recycled path backing array — needs explicit carrying. Adding an Env
// field without classifying it here fails the audit.
var envFieldsKnownToReset = map[string]bool{
	"targets": true, "world": true, "budget": true, "src": true,
	"crashThresh": true, "faultSrc": true,
	"dynWorld": true, "dynTargets": true, "worldUntil": true, "targetsUntil": true,
	"pos": true, "moves": true, "steps": true, "found": true,
	"foundAt": true, "crashed": true, "visited": true, "path": true,
	"hook": true, "stepwise": true, "blockwise": true, "wallX": true, "wallY": true,
}

// TestEnvResetCoversEveryConfigField is the reflection audit: every field
// of EnvConfig must have a survival check, every field of Env must be
// classified, and the checks must pass on a fully-populated config.
func TestEnvResetCoversEveryConfigField(t *testing.T) {
	cfgType := reflect.TypeOf(EnvConfig{})
	for i := 0; i < cfgType.NumField(); i++ {
		name := cfgType.Field(i).Name
		if _, ok := envConfigChecks[name]; !ok {
			t.Errorf("EnvConfig field %q has no Reset survival check: thread it through Env.Reset and add one to envConfigChecks", name)
		}
	}
	for name := range envConfigChecks {
		if _, ok := cfgType.FieldByName(name); !ok {
			t.Errorf("envConfigChecks entry %q matches no EnvConfig field (stale after a rename?)", name)
		}
	}
	envType := reflect.TypeOf(Env{})
	for i := 0; i < envType.NumField(); i++ {
		name := envType.Field(i).Name
		if !envFieldsKnownToReset[name] {
			t.Errorf("Env field %q is not classified in envFieldsKnownToReset: decide whether Reset must carry or zero it", name)
		}
	}
	for name := range envFieldsKnownToReset {
		if _, ok := envType.FieldByName(name); !ok {
			t.Errorf("envFieldsKnownToReset entry %q matches no Env field", name)
		}
	}

	src, faultSrc := rng.New(1), rng.New(2)
	vs := grid.NewVisitSet(4)
	cfg := EnvConfig{
		Target:          grid.Point{X: 3, Y: 3},
		HasTarget:       true,
		Targets:         []grid.Point{{X: 1, Y: 2}, {X: 2, Y: 0}},
		World:           Quadrant{},
		MoveBudget:      64,
		Src:             src,
		CrashProb:       0.25,
		FaultSrc:        faultSrc,
		StartDelaySteps: 9,
		TrackVisits:     vs,
		RecordPath:      true,
		Hook:            &auditHook{},
	}
	env := NewEnv(cfg)
	for name, check := range envConfigChecks {
		name, check := name, check
		t.Run(name, func(t *testing.T) { check(t, env, cfg) })
	}
}

// TestEnvResetClearsRunState dirties an environment (moves, a discovery, a
// recorded path) and asserts a second Reset restores a pristine agent
// while reusing the path allocation.
func TestEnvResetClearsRunState(t *testing.T) {
	src := rng.New(5)
	cfg := EnvConfig{
		Target:     grid.Point{X: 1, Y: 0},
		HasTarget:  true,
		Src:        src,
		RecordPath: true,
	}
	env := NewEnv(cfg)
	if err := env.Move(grid.Right); err != nil {
		t.Fatal(err)
	}
	if err := env.Move(grid.Up); err != nil {
		t.Fatal(err)
	}
	if !env.Found() || env.Moves() != 2 || env.Steps() != 2 {
		t.Fatalf("setup run state unexpected: found=%v moves=%d steps=%d", env.Found(), env.Moves(), env.Steps())
	}
	before := env.Path()

	env.Reset(cfg)
	if env.Found() || env.Crashed() || env.Moves() != 0 || env.Steps() != 0 || env.FoundAt() != 0 {
		t.Errorf("Reset left run state behind: found=%v crashed=%v moves=%d steps=%d foundAt=%d",
			env.Found(), env.Crashed(), env.Moves(), env.Steps(), env.FoundAt())
	}
	if env.Pos() != grid.Origin {
		t.Errorf("Reset left the agent at %v", env.Pos())
	}
	after := env.Path()
	if len(after) != 1 || after[0] != grid.Origin {
		t.Errorf("Reset path = %v, want [origin]", after)
	}
	if len(before) != 3 {
		t.Errorf("pre-Reset path had %d entries, want 3", len(before))
	}
}

// TestEnvResetCrashedCleared: a crashed agent must come back alive after
// Reset (the worker pool reuses Env values across agents).
func TestEnvResetCrashedCleared(t *testing.T) {
	src, faultSrc := rng.New(7), rng.New(8)
	cfg := EnvConfig{
		MoveBudget: 10,
		Src:        src,
		CrashProb:  1.0, // crash on the first move attempt
		FaultSrc:   faultSrc,
	}
	env := NewEnv(cfg)
	if err := env.Move(grid.Up); err != ErrCrashed {
		t.Fatalf("Move = %v, want ErrCrashed", err)
	}
	if !env.Crashed() || !env.Done() {
		t.Fatal("agent should be crashed and done")
	}
	cfg.CrashProb = 0
	cfg.FaultSrc = nil
	env.Reset(cfg)
	if env.Crashed() {
		t.Error("Reset did not clear the crash")
	}
	if err := env.Move(grid.Up); err != nil {
		t.Errorf("move after Reset: %v", err)
	}
}
