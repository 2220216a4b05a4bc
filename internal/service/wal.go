package service

// The write-ahead log makes the job store durable. Every submission and
// every event-log append lands in an append-only, checksummed segment
// file under the data directory before any client observes it (the WAL
// write happens inside the same critical section that wakes event-stream
// waiters), so a daemon killed at any instant replays on restart to a
// store whose job IDs, event logs — including their Seq numbers — and
// artifacts are byte-identical to what clients already saw. A job's JSON
// and CSV artifacts ride in the frame of its done state event, so the
// results and the transition that publishes them land under one checksum:
// replay sees both or neither, and a finished job creates no file.
//
// Records are framed by internal/framing: a length and CRC-32 header, then
// one JSON-encoded walRecord. A crash tears at most the tail of the final
// segment; replay verifies length and checksum and stops cleanly at the
// last intact record.
//
// Compaction bounds replay cost: once the bytes appended since the last
// snapshot reach that snapshot's size (or minCompactBytes, whichever is
// larger) the service rotates to a fresh segment, snapshots the in-memory
// store (which by then is a superset of everything in the rotated-out
// segments) to snapshot.json via temp+rename, and deletes the old
// segments. A snapshot holds the whole history, so tying the trigger to
// its size keeps the compaction work per appended byte constant: N equal
// appends cost O(log N) compactions, not O(N). Replay applies the
// snapshot first and then the surviving segments idempotently (a record
// whose job already exists, or whose event Seq is already present, is
// skipped), so a crash anywhere inside compaction loses nothing.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framing"
)

// WAL record kinds.
const (
	// walKindSubmit records a job submission: id, spec and creation
	// time. It implies the job's Seq-0 queued state event.
	walKindSubmit = "submit"
	// walKindEvent records one event-log append, verbatim.
	walKindEvent = "event"
)

// snapshotSchemaVersion versions the snapshot.json layout.
const snapshotSchemaVersion = 1

// minCompactBytes is the compaction trigger's floor: a young daemon with a
// small snapshot still lets this many log bytes accumulate between
// compactions.
const minCompactBytes = 1 << 20

// walSnapshotName is the snapshot file name inside the data directory.
const walSnapshotName = "snapshot.json"

// walRecord is one WAL entry: a submission or an event-log append.
type walRecord struct {
	Kind  string    `json:"kind"`
	Job   string    `json:"job"`
	Time  time.Time `json:"time,omitzero"` // CreatedAt (submit) / lifecycle stamp (state events)
	Spec  *JobSpec  `json:"spec,omitempty"`
	Event *Event    `json:"event,omitempty"`
	// Artifacts rides only on a done state event.
	Artifacts *artifacts `json:"artifacts,omitempty"`
}

// artifacts is a done job's results, byte for byte, as the WAL and the
// snapshot carry them (base64 in the JSON encoding, which keeps every
// byte exact).
type artifacts struct {
	JSON []byte `json:"json"`
	CSV  []byte `json:"csv"`
}

// artifactsFit reports whether a done frame carrying these artifacts stays
// under framing.MaxPayload. It bounds the base64 encodings plus a margin for
// the record's other fields (kind, job id, time and a done event, a few
// hundred bytes), so it never has to encode the artifacts to tell.
func artifactsFit(jsonB, csvB []byte) bool {
	const margin = 4 << 10
	enc := base64.StdEncoding
	return enc.EncodedLen(len(jsonB))+enc.EncodedLen(len(csvB))+margin <= framing.MaxPayload
}

// walSnapshot is the snapshot.json payload: the full job table at
// compaction time plus the id counter.
type walSnapshot struct {
	SchemaVersion int           `json:"schema_version"`
	NextID        int           `json:"next_id"`
	Jobs          []snapshotJob `json:"jobs"`
}

// snapshotJob is one job's snapshot: the record, its whole event log and,
// for a done job, its artifacts.
type snapshotJob struct {
	Job       Job        `json:"job"`
	Events    []Event    `json:"events"`
	Artifacts *artifacts `json:"artifacts,omitempty"`
}

// wal is the append half of the write-ahead log: a current segment file,
// rotation, and the compaction trigger. Replay is a package function
// (replayDurable) because it runs before any wal exists.
type wal struct {
	dir    string
	notify func() // non-blocking kick of the service's compaction loop

	mu         sync.Mutex
	f          *os.File
	seg        int
	sinceSnap  int64 // log bytes appended since the last snapshot's rotation
	snapBytes  int64 // size of the last published snapshot
	compacting bool

	errs atomic.Int64 // append/compaction failures (durability degraded, service keeps running)
}

// segmentPath names segment n inside dir.
func segmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", n))
}

// segmentIndex parses a segment file name back to its index.
func segmentIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if n, ok := segmentIndex(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// openWAL starts a fresh segment after the highest replayed one. A new
// segment per boot means a torn tail from the previous crash can never be
// appended over. The compaction trigger starts from the replayed state:
// the snapshot's size, and the surviving segments as log since it.
func openWAL(dir string, lastSeg int) (*wal, error) {
	w := &wal{dir: dir, seg: lastSeg + 1}
	if fi, err := os.Stat(filepath.Join(dir, walSnapshotName)); err == nil {
		w.snapBytes = fi.Size()
	}
	segs, _ := listSegments(dir) // replay just listed them; a miss only delays compaction
	for _, n := range segs {
		if fi, err := os.Stat(segmentPath(dir, n)); err == nil {
			w.sinceSnap += fi.Size()
		}
	}
	f, err := os.OpenFile(segmentPath(dir, w.seg), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open wal segment: %w", err)
	}
	w.f = f
	return w, nil
}

// append writes one record to the current segment. Failures are counted
// (Stats.WALErrors) rather than propagated — the in-memory store stays
// authoritative and the daemon keeps serving — and a failed segment is
// rotated out so later records land on a fresh, readable file. A record
// over framing.MaxPayload is never written: replay would stop at it and
// lose every later record.
func (w *wal) append(rec walRecord) {
	if w == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil || len(payload) > framing.MaxPayload {
		w.errs.Add(1)
		return
	}
	buf := framing.Encode(payload)
	var fire bool
	w.mu.Lock()
	if w.f == nil {
		w.errs.Add(1)
		w.mu.Unlock()
		return
	}
	if _, err := w.f.Write(buf); err != nil {
		w.errs.Add(1)
		w.rotateLocked() // the torn tail poisons this segment; move on
	} else {
		w.sinceSnap += int64(len(buf))
		if w.sinceSnap >= max(w.snapBytes, minCompactBytes) && !w.compacting {
			w.compacting = true
			fire = true
		}
	}
	w.mu.Unlock()
	if fire && w.notify != nil {
		w.notify()
	}
}

// rotateLocked closes the current segment and opens the next. Callers
// hold w.mu.
func (w *wal) rotateLocked() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	w.seg++
	f, err := os.OpenFile(segmentPath(w.dir, w.seg), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		w.errs.Add(1)
		return
	}
	w.f = f
}

// rotate switches appends to a fresh segment and returns the paths of the
// now-frozen older segments, ready to be deleted once a snapshot covering
// them has been published. The log since the snapshot starts empty.
func (w *wal) rotate() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotateLocked()
	w.sinceSnap = 0
	segs, err := listSegments(w.dir)
	if err != nil {
		w.errs.Add(1)
		return nil
	}
	var old []string
	for _, n := range segs {
		if n < w.seg {
			old = append(old, segmentPath(w.dir, n))
		}
	}
	return old
}

// compactionDone re-arms the compaction trigger with the size of the
// snapshot just published (0 when publishing failed, so the next attempt
// comes after minCompactBytes).
func (w *wal) compactionDone(snapBytes int64) {
	w.mu.Lock()
	w.compacting = false
	w.snapBytes = snapBytes
	w.mu.Unlock()
}

// close closes the current segment file.
func (w *wal) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	w.mu.Unlock()
}

// readSegment streams the intact frames of one segment through apply. It
// stops cleanly — no error — at the first torn or corrupt frame (short
// header, absurd length, truncated payload, checksum mismatch, non-JSON
// payload): a single-writer append-only file can only be damaged at the
// point of the crash, so everything before it is trustworthy and nothing
// after it exists. Errors from apply itself (a replay inconsistency) do
// propagate.
func readSegment(path string, apply func(walRecord) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return readFrames(data, apply)
}

// readFrames is readSegment on the segment's bytes.
func readFrames(data []byte, apply func(walRecord) error) error {
	for {
		payload, n, ok := framing.Next(data)
		if !ok {
			return nil
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil
		}
		if err := apply(rec); err != nil {
			return err
		}
		data = data[n:]
	}
}

// replayDurable rebuilds the store from dir: snapshot first, then every
// surviving WAL segment in order, idempotently. It returns the highest
// segment index seen so the live WAL can start on the next one. Callers
// run it before the store is shared, so no locking is needed.
func (st *store) replayDurable(dir string) (lastSeg int, err error) {
	if err := st.loadSnapshot(dir); err != nil {
		return 0, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	for _, n := range segs {
		if err := readSegment(segmentPath(dir, n), st.applyWALRecord); err != nil {
			return 0, fmt.Errorf("service: replay %s: %w", segmentPath(dir, n), err)
		}
		lastSeg = n
	}
	return lastSeg, nil
}

// loadSnapshot installs snapshot.json into the store, when present.
func (st *store) loadSnapshot(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, walSnapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read snapshot: %w", err)
	}
	var snap walSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%w: decode snapshot: %v", ErrCorruptLog, err)
	}
	if snap.SchemaVersion != snapshotSchemaVersion {
		return fmt.Errorf("service: snapshot schema %d (want %d)", snap.SchemaVersion, snapshotSchemaVersion)
	}
	for _, sj := range snap.Jobs {
		id := sj.Job.ID
		n, ok := parseJobID(id)
		if !ok || st.jobs[id] != nil {
			return fmt.Errorf("%w: snapshot job id %q is malformed or repeated", ErrCorruptLog, id)
		}
		for i, ev := range sj.Events {
			if ev.Seq != i || ev.Job != id || !validEvent(ev) {
				return fmt.Errorf("%w: snapshot event %d of %s is malformed", ErrCorruptLog, i, id)
			}
		}
		if sj.Artifacts != nil && sj.Job.State != StateDone {
			return fmt.Errorf("%w: snapshot job %s is %s but carries artifacts", ErrCorruptLog, id, sj.Job.State)
		}
		sj.Job.Spec.Normalize() // maps retired kinds, like a submission
		st.jobs[id] = &record{job: sj.Job, events: append([]Event(nil), sj.Events...), art: sj.Artifacts}
		st.order = append(st.order, id)
		st.nextID = max(st.nextID, n)
	}
	if snap.NextID < 0 || snap.NextID == math.MaxInt {
		return fmt.Errorf("%w: snapshot next_id %d", ErrCorruptLog, snap.NextID)
	}
	st.nextID = max(st.nextID, snap.NextID)
	return nil
}

// applyWALRecord replays one record into the store. Submissions of known
// jobs and events at already-present Seq numbers are skipped — the
// snapshot may overlap the surviving segments by design — while a record
// the store could not have written (a Seq gap, a malformed id or event)
// fails replay with ErrCorruptLog.
func (st *store) applyWALRecord(wr walRecord) error {
	switch wr.Kind {
	case walKindSubmit:
		if _, ok := st.jobs[wr.Job]; ok {
			return nil
		}
		n, ok := parseJobID(wr.Job)
		if !ok {
			return fmt.Errorf("%w: submit record has malformed job id %q", ErrCorruptLog, wr.Job)
		}
		if wr.Spec == nil {
			return fmt.Errorf("%w: submit record for %s has no spec", ErrCorruptLog, wr.Job)
		}
		wr.Spec.Normalize() // maps retired kinds, like a submission
		rec := &record{job: Job{
			ID:        wr.Job,
			Spec:      *wr.Spec,
			State:     StateQueued,
			CreatedAt: wr.Time,
		}}
		rec.events = append(rec.events, Event{Seq: 0, Job: wr.Job, Type: EventState, State: StateQueued})
		st.jobs[wr.Job] = rec
		st.order = append(st.order, wr.Job)
		st.nextID = max(st.nextID, n)
		return nil
	case walKindEvent:
		rec, ok := st.jobs[wr.Job]
		if !ok {
			return fmt.Errorf("%w: event record for unknown job %q", ErrCorruptLog, wr.Job)
		}
		if wr.Event == nil || wr.Event.Job != wr.Job || wr.Event.Seq < 0 || !validEvent(*wr.Event) ||
			(wr.Artifacts != nil && (wr.Event.Type != EventState || wr.Event.State != StateDone)) {
			return fmt.Errorf("%w: event record for %s is malformed", ErrCorruptLog, wr.Job)
		}
		ev := *wr.Event
		switch {
		case ev.Seq < len(rec.events):
			return nil // already in the snapshot
		case ev.Seq > len(rec.events):
			return fmt.Errorf("%w: job %s event seq %d leaves a gap (log has %d)", ErrCorruptLog, wr.Job, ev.Seq, len(rec.events))
		}
		rec.events = append(rec.events, ev)
		switch ev.Type {
		case EventState:
			rec.job.State = ev.State
			rec.job.Error = ev.Error
			switch {
			case ev.State == StateRunning:
				rec.job.StartedAt = wr.Time
			case ev.State.Terminal():
				rec.job.FinishedAt = wr.Time
			}
			rec.art = wr.Artifacts
		case EventPoint:
			if ev.Done > rec.job.Done {
				rec.job.Done = ev.Done
			}
			rec.job.Total = ev.Total
			if ev.Cached {
				rec.job.CacheHits++
			}
		case EventTotal:
			rec.job.Total = ev.Total
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown wal record kind %q", ErrCorruptLog, wr.Kind)
	}
}

// parseJobID inverts the store's id format, accepting only ids add could
// have issued: replay seeds the id counter past them (so post-restart
// submissions never collide, and the counter cannot overflow) and joins
// them into artifact paths under the data directory.
func parseJobID(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil || n < 1 || n == math.MaxInt || formatJobID(n) != id {
		return 0, false
	}
	return n, true
}

// validEvent reports whether an event has a known type and, for state
// events, a known state.
func validEvent(ev Event) bool {
	switch ev.Type {
	case EventState:
		switch ev.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			return true
		}
		return false
	case EventPoint, EventTotal:
		return true
	}
	return false
}

// attachWAL wires the live WAL into the store and every replayed record,
// so subsequent submissions and event appends are persisted.
func (st *store) attachWAL(w *wal) {
	st.w = w
	for _, rec := range st.jobs {
		rec.w = w
	}
}

// snapshotAll copies the whole job table for a snapshot. It takes each
// record's lock in turn but never the WAL lock, so compaction cannot
// deadlock against appendLocked (which holds a record lock while writing
// to the WAL).
func (st *store) snapshotAll() walSnapshot {
	st.mu.RLock()
	ids := append([]string(nil), st.order...)
	recs := make([]*record, len(ids))
	for i, id := range ids {
		recs[i] = st.jobs[id]
	}
	nextID := st.nextID
	st.mu.RUnlock()
	snap := walSnapshot{SchemaVersion: snapshotSchemaVersion, NextID: nextID, Jobs: make([]snapshotJob, len(recs))}
	for i, rec := range recs {
		rec.mu.Lock()
		snap.Jobs[i] = snapshotJob{Job: rec.job, Events: append([]Event(nil), rec.events...)}
		if rec.job.State == StateDone {
			snap.Jobs[i].Artifacts = rec.art
		}
		rec.mu.Unlock()
	}
	return snap
}

// writeSnapshot publishes a snapshot atomically: write to a temp file in
// the same directory, then rename over snapshot.json. It returns the
// snapshot's size in bytes. The encoding is compact: a snapshot holds
// every job's events and done artifacts, and indenting it costs several
// times the encoding itself.
func writeSnapshot(dir string, snap walSnapshot) (int64, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	return int64(len(data)), writeFileAtomic(filepath.Join(dir, walSnapshotName), data)
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so readers (and replay after a crash) see either the old
// content or the new — never a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
