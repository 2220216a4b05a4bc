package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark makes into a layer of the program.
// Spans of one op share Op; set-up spans carry Op = setupOp. Parent is the
// ID of the enclosing span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// setupOp marks spans recorded during set-up rather than during an op.
const setupOp = -1

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and per-name counts in memory; they are written out
// when the run ends. A nil *tracer records nothing, so untraced phases
// pay one nil check per call. All methods are called from the benchmark's
// single client goroutine.
type tracer struct {
	clock  clock
	base   time.Duration
	spans  []span
	counts map[string]float64
}

// newTracer returns a tracer whose spans are read on clk.
func newTracer(clk clock) *tracer {
	return &tracer{clock: clk, base: clk(), counts: map[string]float64{}}
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.clock() - t.base})
	return id
}

// end closes the span opened by start.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.clock() - t.base
}

// count adds v to the named counter when op is a timed op.
func (t *tracer) count(op int, name string, v float64) {
	if t == nil || op < 0 {
		return
	}
	t.counts[name] += v
}

// named returns the closed spans with the given name recorded in timed
// ops, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// millis returns the durations of the named spans in milliseconds.
func (t *tracer) millis(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// total is the summed duration of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other;
// overlapping parts are counted once, and parts outside the parent are
// ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			sum += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		sum += cur.hi - cur.lo
	}
	return sum
}

// selfByName returns, for every span name, the median self time in
// milliseconds over the spans of that name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	per := map[string][]float64{}
	for _, s := range spans {
		per[s.Name] = append(per[s.Name], ms(self[s.ID]))
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// setupMedians returns, for each named layer span, the median over set-up
// repetitions of that layer's summed time (ms) within one repetition. A
// repetition is a "bench.setup" span and its layers are its children;
// layers absent from a repetition count as 0.
func (t *tracer) setupMedians(names []string) map[string]float64 {
	var roots []int
	reps := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Name == "bench.setup" {
			roots = append(roots, s.ID)
			reps[s.ID] = map[string]time.Duration{}
		}
	}
	for _, s := range t.spans {
		if rep, ok := reps[s.Parent]; ok {
			rep[s.Name] += s.dur()
		}
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		var xs []float64
		for _, id := range roots {
			xs = append(xs, ms(reps[id][name]))
		}
		out[name] = median(xs)
	}
	return out
}

// write stores the spans (one JSON object per line) and the counters.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
