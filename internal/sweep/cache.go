package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/framing"
)

// Key identifies one grid-point computation for caching: everything the
// result is a deterministic function of. Two runs produce the same Key iff
// the sweep layer guarantees they produce the same Result (ElapsedSec
// aside), so a cache hit is always safe to substitute for a recompute.
type Key struct {
	// Code is the global code-version tag (CodeVersion).
	Code string `json:"code"`
	// Grid and GridVersion identify the owning grid and its kernel
	// semantics version.
	Grid        string `json:"grid"`
	GridVersion int    `json:"grid_version"`
	// Trials is the per-point trial count.
	Trials int `json:"trials"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed"`
	// Params are the point's parameter bindings in axis order.
	Params []Param `json:"params"`
}

// KeyFor builds the cache key of one point of a grid run.
func KeyFor(g Grid, p Point, seed uint64) Key {
	return Key{
		Code:        CodeVersion,
		Grid:        g.Name,
		GridVersion: g.Version,
		Trials:      g.Trials,
		Seed:        seed,
		Params:      p.Params,
	}
}

// Hash returns the key's canonical content address: the hex SHA-256 of its
// canonical JSON form. Struct field order fixes the byte layout, so the
// hash is stable across processes and runs.
func (k Key) Hash() string {
	data, err := json.Marshal(k)
	if err != nil {
		// Key contains only strings and integers; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: marshal key: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// entrySchemaVersion versions the on-disk cache entry layout. A bump
// invalidates every existing entry (they fail the schema check and read as
// misses).
const entrySchemaVersion = 1

// entry is the on-disk form of one cached point: the full key is stored
// alongside the result so a hash collision or a stale entry can never
// silently return the wrong data.
type entry struct {
	Schema int     `json:"schema_version"`
	Key    Key     `json:"key"`
	Result *Result `json:"result"`
}

// packSuffix names the cache's pack segments.
const packSuffix = ".pack"

// Cache is the on-disk store of point results, shared by every process
// pointed at the same directory. Entries live in append-only pack
// segments, <dir>/<pid>-<nanotime>.pack: each process appends to one
// segment that only it writes, created on its first Put, one
// internal/framing frame (length, CRC-32, compact entry JSON) per point.
// A point costs an append, not a new file.
//
// Cross-process rules. Readers index every segment they find; a lookup
// that misses the index re-reads the new tails of the other processes'
// segments, so an entry another process appended before the lookup
// started is found. A scan takes a segment's frames up to the first one
// that is not intact — a crash tears at most the tail its writer was
// appending, and an append still in flight reads as not yet written — so
// every entry before a torn tail stays a hit. No process ever appends to
// another's segment, so nothing lands after a torn tail. Same-key races
// are harmless: results are deterministic in the key, and the newest
// frame seen wins. A hit still requires the stored full key to equal the
// requested one. Entries the per-file layout of earlier versions wrote
// (<dir>/<grid>/<hash[:2]>/<hash>.json) are not read: they are misses,
// and recomputing one yields the identical result.
//
// A Cache is safe for concurrent use; NewCache returns one instance per
// directory per process, and its segment files stay open for the life of
// the process.
type Cache struct {
	dir  string
	info os.FileInfo // identifies dir, so a directory recreated at the same path gets a fresh instance

	mu    sync.Mutex
	own   *segment            // this instance's segment; nil before the first Put and after a failed append
	segs  map[string]*segment // every segment seen, by file name
	index map[string]location // key hash → newest entry seen
}

// segment is one open pack segment.
type segment struct {
	f    *os.File
	end  int64 // end of the last intact frame read or written
	mine bool  // written by this instance, so never rescanned
}

// location is where one entry's payload lies.
type location struct {
	seg *segment
	off int64
	n   int
}

// caches holds each process's one instance per directory.
var caches = struct {
	sync.Mutex
	m map[string]*Cache
}{m: map[string]*Cache{}}

// NewCache returns the process's cache for dir, creating the directory
// if needed. Every call for the same directory returns the same instance,
// so all the sweeps, daemons and shard jobs of one process share its
// index and its one pack segment. It reads nothing yet: the first lookup
// indexes the segments already there.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: cache needs a directory")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	caches.Lock()
	defer caches.Unlock()
	if c := caches.m[abs]; c != nil {
		if info, err := os.Stat(abs); err == nil && os.SameFile(info, c.info) {
			return c, nil
		}
	}
	c, err := openCache(abs)
	if err != nil {
		return nil, err
	}
	caches.m[abs] = c
	return c, nil
}

// openCache builds a fresh instance for dir, as a new process would.
func openCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create cache dir: %w", err)
	}
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: create cache dir: %w", err)
	}
	return &Cache{dir: dir, info: info, segs: map[string]*segment{}, index: map[string]location{}}, nil
}

// Dir returns the cache's root directory, as an absolute path.
func (c *Cache) Dir() string { return c.dir }

// Get looks the key up. It returns (nil, false) on a miss — including an
// entry that does not decode, has another schema version, or stores a
// key other than the requested one (hash collision or tampering).
func (c *Cache) Get(k Key) (*Result, bool) {
	h := k.Hash()
	c.mu.Lock()
	loc, ok := c.index[h]
	if !ok {
		c.scanLocked()
		loc, ok = c.index[h]
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, loc.n)
	if _, err := loc.seg.f.ReadAt(buf, loc.off); err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(buf, &e); err != nil ||
		e.Schema != entrySchemaVersion || e.Result == nil || !sameKey(e.Key, k) {
		return nil, false
	}
	return e.Result, true
}

// Put appends the result under the key to this process's segment; a
// later entry for the same key supersedes earlier ones.
func (c *Cache) Put(k Key, r *Result) error {
	payload, err := json.Marshal(entry{Schema: entrySchemaVersion, Key: k, Result: r})
	if err != nil {
		return fmt.Errorf("sweep: marshal cache entry: %w", err)
	}
	if len(payload) > framing.MaxPayload {
		return fmt.Errorf("sweep: cache entry of %d bytes exceeds the %d-byte frame bound", len(payload), framing.MaxPayload)
	}
	buf := framing.Encode(payload)
	h := k.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.own == nil {
		if err := c.createSegmentLocked(); err != nil {
			return err
		}
	}
	s := c.own
	if _, err := s.f.Write(buf); err != nil {
		// A failed append may leave a torn frame, where every reader's
		// scan of this segment stops: later entries go to a new one.
		c.own = nil
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	c.index[h] = location{seg: s, off: s.end + framing.HeaderSize, n: len(payload)}
	s.end += int64(len(buf))
	return nil
}

// createSegmentLocked creates this instance's pack segment. Callers hold
// c.mu.
func (c *Cache) createSegmentLocked() error {
	for attempt := 0; ; attempt++ {
		name := fmt.Sprintf("%d-%d%s", os.Getpid(), time.Now().UnixNano(), packSuffix)
		f, err := os.OpenFile(filepath.Join(c.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if os.IsExist(err) && attempt < 8 {
			continue
		}
		if err != nil {
			return fmt.Errorf("sweep: create cache segment: %w", err)
		}
		c.own = &segment{f: f, mine: true}
		c.segs[name] = c.own
		return nil
	}
}

// scanLocked indexes the entries other processes appended since the last
// scan: new segments from the start, known ones from where the last scan
// stopped. Callers hold c.mu.
func (c *Cache) scanLocked() {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, packSuffix) {
			continue
		}
		s := c.segs[name]
		if s == nil {
			f, err := os.Open(filepath.Join(c.dir, name))
			if err != nil {
				continue
			}
			s = &segment{f: f}
			c.segs[name] = s
		}
		if !s.mine {
			c.readTailLocked(s)
		}
	}
}

// readTailLocked indexes the intact frames past s.end and advances s.end
// over them. Callers hold c.mu.
func (c *Cache) readTailLocked(s *segment) {
	info, err := s.f.Stat()
	if err != nil || info.Size() <= s.end {
		return
	}
	data := make([]byte, info.Size()-s.end)
	n, _ := s.f.ReadAt(data, s.end) // a short read only defers frames to the next scan
	data = data[:n]
	for {
		payload, size, ok := framing.Next(data)
		if !ok {
			return
		}
		var head struct {
			Schema int `json:"schema_version"`
			Key    Key `json:"key"`
		}
		if json.Unmarshal(payload, &head) == nil && head.Schema == entrySchemaVersion {
			c.index[head.Key.Hash()] = location{seg: s, off: s.end + framing.HeaderSize, n: len(payload)}
		}
		s.end += int64(size)
		data = data[size:]
	}
}

func sameKey(a, b Key) bool {
	if a.Code != b.Code || a.Grid != b.Grid || a.GridVersion != b.GridVersion ||
		a.Trials != b.Trials || a.Seed != b.Seed || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}
