package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/framing"
)

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(t)
	g := testGrid()
	pts := g.Points()
	key := KeyFor(g, pts[0], 42)

	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := &Result{Samples: []float64{1, 2, 3}, Values: map[string]float64{"x": 4}}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mangled the result: %+v != %+v", got, want)
	}
	// A different point, seed, trial count or version must miss.
	for name, k := range map[string]Key{
		"other point":  KeyFor(g, pts[1], 42),
		"other seed":   KeyFor(g, pts[0], 43),
		"other trials": func() Key { g2 := g; g2.Trials++; return KeyFor(g2, pts[0], 42) }(),
		"other grid version": func() Key {
			g2 := g
			g2.Version++
			return KeyFor(g2, pts[0], 42)
		}(),
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s hit the cache", name)
		}
	}
}

// TestKeyHashStability pins the canonical hash of a fixed key. If this
// test breaks, the canonicalization changed and every existing cache is
// silently invalidated — that is sometimes intended (then update the
// pinned digest AND bump CodeVersion), never accidental.
func TestKeyHashStability(t *testing.T) {
	key := Key{
		Code:        "sweep-v1",
		Grid:        "e1-nonuniform",
		GridVersion: 1,
		Trials:      40,
		Seed:        42,
		Params:      []Param{{Name: "D", Value: "64"}, {Name: "n", Value: "16"}},
	}
	const want = "bdfe95ca99f0727ebf3a35193c822c72197f6351125e5d936a2fa0404d80c5b5"
	if got := key.Hash(); got != want {
		t.Errorf("Hash = %s, want %s (canonicalization changed?)", got, want)
	}
	// Stable across repeated computation, sensitive to every field.
	if key.Hash() != key.Hash() {
		t.Error("Hash is not deterministic")
	}
	perturbed := []Key{
		{Code: "sweep-v2", Grid: key.Grid, GridVersion: 1, Trials: 40, Seed: 42, Params: key.Params},
		{Code: key.Code, Grid: "other", GridVersion: 1, Trials: 40, Seed: 42, Params: key.Params},
		{Code: key.Code, Grid: key.Grid, GridVersion: 2, Trials: 40, Seed: 42, Params: key.Params},
		{Code: key.Code, Grid: key.Grid, GridVersion: 1, Trials: 41, Seed: 42, Params: key.Params},
		{Code: key.Code, Grid: key.Grid, GridVersion: 1, Trials: 40, Seed: 43, Params: key.Params},
		{Code: key.Code, Grid: key.Grid, GridVersion: 1, Trials: 40, Seed: 42,
			Params: []Param{{Name: "D", Value: "64"}, {Name: "n", Value: "17"}}},
	}
	for i, k := range perturbed {
		if k.Hash() == want {
			t.Errorf("perturbed key %d collides with the original", i)
		}
	}
}

// TestResumeRecomputesOnlyMissingPoints is the resumability contract: an
// interrupted sweep re-run with Resume recomputes exactly the points the
// interruption lost, verified by counting kernel invocations.
func TestResumeRecomputesOnlyMissingPoints(t *testing.T) {
	c := newTestCache(t)
	g := testGrid() // 6 points

	// First run: the kernel dies at the 5th point (a simulated
	// interruption). Shards=1 makes the claim order deterministic, so
	// exactly points 0–3 are computed and cached.
	var calls atomic.Int64
	interrupted := errors.New("interrupted")
	_, err := Run(g, func(p Point, ctx Ctx) (*Result, error) {
		if calls.Add(1) == 5 {
			return nil, interrupted
		}
		return testKernel(p, ctx)
	}, Options{Seed: 7, Shards: 1, Cache: c, Resume: true})
	if !errors.Is(err, interrupted) {
		t.Fatalf("want simulated interruption, got %v", err)
	}
	if calls.Load() != 5 {
		t.Fatalf("first run made %d kernel calls, want 5", calls.Load())
	}

	// Resumed run: only the 2 missing points are recomputed.
	calls.Store(0)
	rep, err := Run(g, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 7, Shards: 1, Cache: c, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("resume made %d kernel calls, want 2", calls.Load())
	}
	if rep.Computed != 2 || rep.CacheHits != 4 {
		t.Errorf("resume computed=%d hits=%d, want 2/4", rep.Computed, rep.CacheHits)
	}

	// Third run resumes fully from cache: zero kernel calls.
	calls.Store(0)
	rep, err = Run(g, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 7, Cache: c, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 || rep.CacheHits != 6 {
		t.Errorf("full resume made %d calls with %d hits, want 0/6", calls.Load(), rep.CacheHits)
	}

	// Without Resume the same cache is write-only: everything recomputes.
	calls.Store(0)
	rep, err = Run(g, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 7, Cache: c, Resume: false})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 || rep.CacheHits != 0 {
		t.Errorf("non-resume run made %d calls with %d hits, want 6/0", calls.Load(), rep.CacheHits)
	}
}

// TestResumeMatchesFreshRun checks a resumed sweep's aggregate tables are
// byte-identical to a single uninterrupted run's.
func TestResumeMatchesFreshRun(t *testing.T) {
	fresh, err := Run(testGrid(), testKernel, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t)
	if _, err := Run(testGrid(), testKernel, Options{Seed: 11, Cache: c}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(testGrid(), testKernel, Options{Seed: 11, Cache: c, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits != 6 {
		t.Fatalf("resumed run hit %d/6", resumed.CacheHits)
	}
	if fresh.Summary().CSV() != resumed.Summary().CSV() {
		t.Error("resumed summary differs from fresh run")
	}
}

// TestCorruptedEntryRecovery: damaged pack frames read as misses, are
// recomputed, and heal. Frames with another schema version or an
// undecodable payload (intact CRC) are skipped; a frame whose checksum
// fails ends the segment's scan, like a torn tail, hiding what follows.
func TestCorruptedEntryRecovery(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	pts := g.Points()
	var seg []byte
	for i, p := range pts {
		res, err := testKernel(p, Ctx{Seed: 3, Trials: g.Trials})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(entry{Schema: entrySchemaVersion, Key: KeyFor(g, p, 3), Result: res})
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 1:
			payload = []byte(`{"schema_version": 999, "key": {}, "result": {}}`)
		case 2:
			payload = []byte("{ not json")
		}
		f := framing.Encode(payload)
		if i == 4 {
			f[len(f)-1] ^= 0xFF // payload no longer matches the CRC
		}
		seg = append(seg, f...)
	}
	if err := os.WriteFile(filepath.Join(dir, "1-1.pack"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	c := openTestCache(t, dir)
	var calls atomic.Int64
	rep, err := Run(g, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 3, Cache: c, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("recovery recomputed %d points, want the 4 damaged or hidden ones", calls.Load())
	}
	if rep.CacheHits != 2 {
		t.Errorf("recovery hit %d points, want the 2 intact ones before the tear", rep.CacheHits)
	}
	// The slots healed: another process's resume is all hits.
	rep, err = Run(g, testKernel, Options{Seed: 3, Cache: openTestCache(t, dir), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 6 {
		t.Errorf("healed cache hit %d/6", rep.CacheHits)
	}
}

// openTestCache opens a fresh instance on dir — what another process
// sees — and closes its segment files when the test ends.
func openTestCache(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := openCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range c.segs {
			s.f.Close()
		}
	})
	return c
}

// TestCacheCollisionReadsAsMiss: an index slot that leads to an entry
// stored under another key — a hash collision — is a miss, never the
// other key's result.
func TestCacheCollisionReadsAsMiss(t *testing.T) {
	c := newTestCache(t)
	g := testGrid()
	pts := g.Points()
	k0, k1 := KeyFor(g, pts[0], 1), KeyFor(g, pts[1], 1)
	if err := c.Put(k0, &Result{Samples: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.index[k1.Hash()] = c.index[k0.Hash()]
	c.mu.Unlock()
	if res, ok := c.Get(k1); ok {
		t.Fatalf("colliding slot served %+v", res)
	}
}

// TestNewCacheSharesInstance: every NewCache call for one directory in a
// process returns the same instance, however the path is spelled, and a
// directory removed and recreated at the same path gets a fresh one.
func TestNewCacheSharesInstance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	a, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCache(filepath.Join(dir, "..", "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two instances for one directory")
	}
	// Nothing is created before the first Put.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("fresh cache dir holds %v (%v)", entries, err)
	}
	k := KeyFor(testGrid(), testGrid().Points()[0], 1)
	if err := a.Put(k, &Result{Samples: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("a recreated directory reuses the removed one's instance")
	}
	if _, ok := c.Get(k); ok {
		t.Error("a recreated directory serves the removed one's entry")
	}
}

// TestCacheSharedAcrossProcesses: two instances on one directory — two
// processes — each append to their own segment and find each other's
// entries, including ones appended after their first scan.
func TestCacheSharedAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	a, b := openTestCache(t, dir), openTestCache(t, dir)
	g := testGrid()
	pts := g.Points()
	var wg sync.WaitGroup
	for w, c := range []*Cache{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pts); i += 2 {
				if err := c.Put(KeyFor(g, pts[i], 1), &Result{Samples: []float64{float64(i)}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range []*Cache{a, b} {
		for i, p := range pts {
			res, ok := c.Get(KeyFor(g, p, 1))
			if !ok || len(res.Samples) != 1 || res.Samples[0] != float64(i) {
				t.Errorf("point %d: got %+v, %v", i, res, ok)
			}
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+packSuffix))
	if err != nil || len(segs) != 2 {
		t.Errorf("segments %v (%v), want one per process", segs, err)
	}
}

// TestTornPackTailKeepsEarlierEntries cuts a segment at every byte of its
// last frame, as a crash mid-append would. A process opening the
// directory afterwards hits every earlier entry, misses the torn one, and
// its own Put and Get work — as do a third process's.
func TestTornPackTailKeepsEarlierEntries(t *testing.T) {
	src := t.TempDir()
	w := openTestCache(t, src)
	g := testGrid()
	pts := g.Points()
	keys := make([]Key, len(pts))
	for i, p := range pts {
		keys[i] = KeyFor(g, p, 1)
		if err := w.Put(keys[i], &Result{Samples: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(w.own.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	last := w.index[keys[len(keys)-1].Hash()].off - framing.HeaderSize
	for cut := last; cut < int64(len(seg)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "1-1.pack"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := openTestCache(t, dir)
		for i, k := range keys {
			res, ok := c.Get(k)
			if torn := i == len(keys)-1; ok == torn || (ok && res.Samples[0] != float64(i)) {
				t.Fatalf("cut at %d: entry %d hit=%v %+v", cut, i, ok, res)
			}
		}
		if err := c.Put(keys[len(keys)-1], &Result{Samples: []float64{-1}}); err != nil {
			t.Fatalf("cut at %d: Put after reopening: %v", cut, err)
		}
		for _, r := range []*Cache{c, openTestCache(t, dir)} {
			if res, ok := r.Get(keys[len(keys)-1]); !ok || res.Samples[0] != -1 {
				t.Fatalf("cut at %d: Get after Put = %+v, %v", cut, res, ok)
			}
			if _, ok := r.Get(keys[0]); !ok {
				t.Fatalf("cut at %d: first entry lost after Put", cut)
			}
		}
	}
}

// TestLegacyEntriesReadAsMisses: an entry file of the per-file layout
// earlier versions wrote is not read; the point recomputes.
func TestLegacyEntriesReadAsMisses(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	k := KeyFor(g, g.Points()[0], 1)
	h := k.Hash()
	data, err := json.Marshal(entry{Schema: entrySchemaVersion, Key: k, Result: &Result{Samples: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, g.Name, h[:2], h+".json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := openTestCache(t, dir).Get(k); ok {
		t.Error("a per-file entry was read")
	}
}

// FuzzCachePack feeds mutated segment bytes to a fresh instance. With
// reframe set, the input is newline-separated payloads, each framed with
// a valid CRC, so mutants reach the entry decoding. Lookups must never
// panic, and a hit must return the result of a frame stored under the
// requested key; Put and Get must keep working on top of any segment.
func FuzzCachePack(f *testing.F) {
	g := testGrid()
	pts := g.Points()
	var payloads [][]byte
	var seg []byte
	for _, p := range pts[:4] {
		res, err := testKernel(p, Ctx{Seed: 2, Trials: g.Trials})
		if err != nil {
			f.Fatal(err)
		}
		payload, err := json.Marshal(entry{Schema: entrySchemaVersion, Key: KeyFor(g, p, 2), Result: res})
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, payload)
		seg = append(seg, framing.Encode(payload)...)
	}
	f.Add(seg, false)
	f.Add(bytes.Join(payloads, []byte("\n")), true)
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			var framed []byte
			for _, p := range bytes.Split(data, []byte("\n")) {
				framed = append(framed, framing.Encode(p)...)
			}
			data = framed
		}
		// What the segment stores under each key, by the same framing rule.
		stored := map[string][]string{}
		keys := []Key{}
		for _, p := range pts {
			keys = append(keys, KeyFor(g, p, 2))
		}
		for rest := data; ; {
			payload, n, ok := framing.Next(rest)
			if !ok {
				break
			}
			var e entry
			if json.Unmarshal(payload, &e) == nil && e.Result != nil {
				res, _ := json.Marshal(e.Result)
				stored[e.Key.Hash()] = append(stored[e.Key.Hash()], string(res))
				keys = append(keys, e.Key)
			}
			rest = rest[n:]
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "1-1.pack"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := openTestCache(t, dir)
		for _, k := range keys {
			res, ok := c.Get(k)
			if !ok {
				continue
			}
			got, _ := json.Marshal(res)
			if !slices.Contains(stored[k.Hash()], string(got)) {
				t.Fatalf("Get(%+v) = %s, which no frame stores under that key", k, got)
			}
		}
		k := KeyFor(g, pts[5], 99)
		want := &Result{Samples: []float64{42}}
		if err := c.Put(k, want); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Cache{c, openTestCache(t, dir)} {
			if got, ok := r.Get(k); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("Get after Put = %+v, %v", got, ok)
			}
		}
	})
}

func TestNewCacheErrors(t *testing.T) {
	if _, err := NewCache(""); err == nil {
		t.Error("empty dir accepted")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(filepath.Join(file, "sub")); err == nil {
		t.Error("uncreatable dir accepted")
	}
}
