// Package scenario is the registry of named, parameterized world/fault
// presets that the simulation engines run on. A scenario bundles the three
// ingredients the engines accept independently — a sim.World topology, a
// target set, and a sim.FaultModel — behind one canonical spec string
// ("torus", "ring:k=4", "crash:p=0.001"), so CLI flags, sweep-grid axes and
// tests can all name the same configuration and get bit-identical runs.
//
// Specs have the form
//
//	name[:key=value[,key=value...]]
//
// where name selects a registered preset and the keys override its
// parameters. Every preset accepts the common keys crash= (per-opportunity
// crash probability) and delay= (maximum start-delay rounds) in addition to
// its own; unknown keys are an error, never silently ignored. Building a
// scenario is deterministic: the same spec and distance always produce the
// same worlds and target sets, and worlds never consume randomness, so a
// scenario is a pure label for the engines' extra configuration.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/sim"
)

// ErrUnknownParam is the sentinel wrapped by Build's error when a spec
// supplies a key the preset does not read. Tests and callers distinguish
// "bad value" from "bad key" with errors.Is.
var ErrUnknownParam = errors.New("unknown parameter")

// Scenario is one built world/target/fault configuration at a concrete
// nominal distance D.
type Scenario struct {
	// Spec is the canonical spec string that rebuilds this scenario.
	Spec string
	// Preset is the name of the preset the spec selected.
	Preset string
	// Summary is the preset's one-line description.
	Summary string
	// D is the nominal target distance the scenario was built for.
	D int64
	// World is the topology (nil = open plane).
	World sim.World
	// DynamicWorld, when non-nil, is a time-varying topology (World is
	// then nil).
	DynamicWorld sim.DynamicWorld
	// Targets is the target set (empty only when DynamicTargets is set).
	Targets []grid.Point
	// DynamicTargets, when non-nil, is a time-varying target schedule
	// (Targets is then empty).
	DynamicTargets sim.TargetSchedule
	// Machines, when non-empty, runs a heterogeneous colony: the engines
	// assign machine families round-robin across agent ids, overriding the
	// caller's single machine. Rounds engine only.
	Machines []*automata.Machine
	// Faults is the agent fault model (zero value: no faults).
	Faults sim.FaultModel
}

// RoundsOnly reports whether the scenario needs the synchronous rounds
// engine: heterogeneous colonies and the adaptive crash adversary have no
// asynchronous counterpart (sim.Run rejects the latter with
// sim.ErrAdaptiveAsync).
func (s Scenario) RoundsOnly() bool {
	return len(s.Machines) > 0 || s.Faults.Policy == sim.CrashNearest
}

// WorldName returns the world's name ("open-plane" for a nil World).
func (s Scenario) WorldName() string {
	if s.DynamicWorld != nil {
		w, _ := s.DynamicWorld.Tick(1)
		if w == nil {
			w = sim.OpenPlane{}
		}
		return "dynamic (" + w.Name() + " at round 1)"
	}
	if s.World == nil {
		return sim.OpenPlane{}.Name()
	}
	return s.World.Name()
}

// Apply overlays the scenario onto an asynchronous-engine config: world
// (static or scheduled), fault model, and the full target set or schedule
// (replacing any single target already present). Scenarios for which
// RoundsOnly reports true do not fit this engine — heterogeneous machine
// rosters are dropped here and the adaptive adversary makes sim.Run fail
// with sim.ErrAdaptiveAsync.
func (s Scenario) Apply(cfg sim.Config) sim.Config {
	cfg.World = s.World
	cfg.DynamicWorld = s.DynamicWorld
	cfg.Faults = s.Faults
	cfg.Target, cfg.HasTarget = grid.Point{}, false
	cfg.Targets = s.Targets
	cfg.DynamicTargets = s.DynamicTargets
	return cfg
}

// ApplyRounds overlays the scenario onto a synchronous-engine config,
// including the heterogeneous machine roster when the scenario carries one.
func (s Scenario) ApplyRounds(cfg sim.RoundsConfig) sim.RoundsConfig {
	cfg.World = s.World
	cfg.DynamicWorld = s.DynamicWorld
	cfg.Faults = s.Faults
	cfg.Target, cfg.HasTarget = grid.Point{}, false
	cfg.Targets = s.Targets
	cfg.DynamicTargets = s.DynamicTargets
	if len(s.Machines) > 0 {
		cfg.Machines = s.Machines
	}
	return cfg
}

// Preset is one registered scenario family: a name plus a builder that
// instantiates it for a nominal distance D and parameter overrides.
type Preset struct {
	// Name is the spec name (lowercase, no colons or commas).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Params documents the preset-specific keys ("" when the preset only
	// takes the common crash=/delay= keys).
	Params string
	// build instantiates the preset's ingredients (before the common fault
	// overrides).
	build func(d int64, p *params) (built, error)
}

// built is a preset builder's output: exactly one of world/dynWorld may be
// non-nil (both nil = static open plane), and exactly one of
// targets/dynTargets must be set. machines is optional (heterogeneous
// colonies, rounds engine only).
type built struct {
	world      sim.World
	dynWorld   sim.DynamicWorld
	targets    []grid.Point
	dynTargets sim.TargetSchedule
	machines   []*automata.Machine
	faults     sim.FaultModel
}

// Presets returns the registered presets in registration order.
func Presets() []Preset { return append([]Preset(nil), presets...) }

// Names returns the registered preset names in registration order.
func Names() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return names
}

// Lookup returns the preset with the given name, or an error listing the
// valid names.
func Lookup(name string) (Preset, error) {
	for _, p := range presets {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("scenario: unknown preset %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// Build parses a spec string and instantiates it for nominal distance d.
// The returned scenario is fully validated: the world's parameters are
// legal, it contains the origin and every target, and the fault model is
// well-formed.
func Build(spec string, d int64) (Scenario, error) {
	if d < 1 {
		return Scenario{}, fmt.Errorf("scenario: distance %d must be positive", d)
	}
	name, p, err := parseSpec(spec)
	if err != nil {
		return Scenario{}, err
	}
	preset, err := Lookup(name)
	if err != nil {
		return Scenario{}, err
	}
	b, err := preset.build(d, p)
	// A parse failure makes the typed accessors return zero values, so any
	// range error the builder derived from them is a symptom; report the
	// parse error, not the misleading consequence.
	if p.err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", preset.Name, p.err)
	}
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", preset.Name, err)
	}
	// Common overrides, read after build so presets can set fault defaults.
	b.faults.CrashProb = p.float("crash", b.faults.CrashProb)
	b.faults.MaxStartDelay = p.uint64v("delay", b.faults.MaxStartDelay)
	if err := p.finish(); err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", preset.Name, err)
	}
	s := Scenario{
		Spec:           canonicalSpec(preset.Name, p),
		Preset:         preset.Name,
		Summary:        preset.Summary,
		D:              d,
		World:          b.world,
		DynamicWorld:   b.dynWorld,
		Targets:        b.targets,
		DynamicTargets: b.dynTargets,
		Machines:       b.machines,
		Faults:         b.faults,
	}
	if err := validate(s); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// validate checks the built scenario end to end, mirroring the engines'
// own run-time validation so a bad spec fails at build time.
func validate(s Scenario) error {
	if len(s.Targets) == 0 && s.DynamicTargets == nil {
		return fmt.Errorf("scenario %s: no targets", s.Preset)
	}
	if len(s.Targets) > 0 && s.DynamicTargets != nil {
		return fmt.Errorf("scenario %s: both static targets and a target schedule", s.Preset)
	}
	if s.World != nil && s.DynamicWorld != nil {
		return fmt.Errorf("scenario %s: both a static and a dynamic world", s.Preset)
	}
	if s.DynamicWorld != nil {
		if err := s.DynamicWorld.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Preset, err)
		}
	}
	if s.DynamicTargets != nil {
		if err := s.DynamicTargets.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Preset, err)
		}
	}
	// Containment checks run against the world of round 1 (static worlds
	// are the same world in every round); schedules' own Validate covers
	// their later epochs.
	w := s.World
	if s.DynamicWorld != nil {
		w, _ = s.DynamicWorld.Tick(1)
	}
	if w != nil {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Preset, err)
		}
		if !w.Contains(grid.Origin) {
			return fmt.Errorf("scenario %s: world %s does not contain the origin", s.Preset, w.Name())
		}
		targets := s.Targets
		if s.DynamicTargets != nil {
			ts, _ := s.DynamicTargets.Targets(1)
			targets = ts.Points()
		}
		for _, t := range targets {
			if !w.Contains(t) {
				return fmt.Errorf("scenario %s: target %v is not a position of world %s",
					s.Preset, t, w.Name())
			}
		}
	}
	for i, m := range s.Machines {
		if m == nil {
			return fmt.Errorf("scenario %s: machine family %d is nil", s.Preset, i)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Preset, err)
	}
	return nil
}

// parseSpec splits "name[:k=v[,k=v...]]" into the preset name and its
// parameter map.
func parseSpec(spec string) (string, *params, error) {
	spec = strings.TrimSpace(spec)
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "", nil, fmt.Errorf("scenario: empty spec")
	}
	p := &params{m: map[string]string{}}
	if !hasParams {
		return name, p, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("scenario: malformed parameter %q in spec %q (want key=value)", kv, spec)
		}
		if _, dup := p.m[k]; dup {
			return "", nil, fmt.Errorf("scenario: duplicate parameter %q in spec %q", k, spec)
		}
		p.m[k] = v
	}
	return name, p, nil
}

// canonicalSpec renders the preset name plus the explicitly given
// parameters, sorted by key, so equal configurations get equal specs.
func canonicalSpec(name string, p *params) string {
	if len(p.m) == 0 {
		return name
	}
	keys := make([]string, 0, len(p.m))
	for k := range p.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + p.m[k]
	}
	return name + ":" + strings.Join(parts, ",")
}

// params gives presets typed access to the spec's key=value overrides,
// accumulating the first parse error and tracking which keys were read so
// Build can reject unknown ones.
type params struct {
	m    map[string]string
	used map[string]bool
	err  error
}

func (p *params) raw(key string) (string, bool) {
	if p.used == nil {
		p.used = map[string]bool{}
	}
	p.used[key] = true
	v, ok := p.m[key]
	return v, ok
}

// int64v returns the key's value as an int64, or def when absent.
func (p *params) int64v(key string, def int64) int64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q is not an integer", key, v)
	}
	return n
}

// intv returns the key's value as an int, or def when absent.
func (p *params) intv(key string, def int) int {
	return int(p.int64v(key, int64(def)))
}

// uint64v returns the key's value as a uint64, or def when absent.
func (p *params) uint64v(key string, def uint64) uint64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q is not a non-negative integer", key, v)
	}
	return n
}

// float returns the key's value as a float64, or def when absent.
func (p *params) float(key string, def float64) float64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q is not a number", key, v)
	}
	return f
}

// finish returns the accumulated parse error, or an error naming any keys
// that were supplied but never read (unknown to the preset).
func (p *params) finish() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for k := range p.m {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%w(s) %s", ErrUnknownParam, strings.Join(unknown, ", "))
	}
	return nil
}
