package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// record is the service-internal state of one job: the mutable Job
// snapshot, the append-only event log with its waiters, the artifacts, and
// the running job's cancel function. All fields are guarded by mu except
// w, which is set before the record is shared.
type record struct {
	mu       sync.Mutex
	job      Job
	events   []Event
	waiters  []chan struct{} // closed and cleared on every append
	cancelFn context.CancelFunc
	w        *wal // nil when the store is not durable

	art *artifacts // set with the done state, nil before it
}

// snapshot returns a copy of the job record safe to hand out.
func (r *record) snapshot() Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.job
}

// appendLocked adds an event to the log (stamping Seq and Job), persists
// it to the WAL — with art, the done state's artifacts, in the same
// frame — and only then wakes every stream waiting for new entries, so
// any event a client has streamed is already durable. now stamps state
// events in the WAL (replay restores StartedAt/FinishedAt from it); point
// and total events pass the zero time. Callers hold r.mu.
func (r *record) appendLocked(ev Event, now time.Time, art *artifacts) {
	ev.Seq = len(r.events)
	ev.Job = r.job.ID
	r.events = append(r.events, ev)
	r.w.append(walRecord{Kind: walKindEvent, Job: r.job.ID, Time: now, Event: &ev, Artifacts: art})
	for _, w := range r.waiters {
		close(w)
	}
	r.waiters = r.waiters[:0]
}

// setStateLocked transitions the job and logs the matching EventState
// entry, stamping the lifecycle timestamps. Callers hold r.mu, are
// responsible for the transition being legal, and set r.art before a
// transition to done.
func (r *record) setStateLocked(st JobState, errMsg string, now time.Time) {
	r.job.State = st
	r.job.Error = errMsg
	switch {
	case st == StateRunning:
		r.job.StartedAt = now
	case st.Terminal():
		r.job.FinishedAt = now
	}
	var art *artifacts
	if st == StateDone {
		art = r.art // the results land in the frame that publishes them
	}
	r.appendLocked(Event{Type: EventState, State: st, Error: errMsg}, now, art)
}

// setTotal records the job's total work units and announces them with an
// EventTotal log entry, so stream consumers (and durable replay) learn
// the denominator before the first point finishes — even for a job that
// fails before producing any point.
func (r *record) setTotal(total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.job.Total = total
	r.appendLocked(Event{Type: EventTotal, Total: total}, time.Time{}, nil)
}

// progress logs one finished work unit and updates the job's counters.
// Parallel sweep shards race between claiming a Done number and reaching
// this method, so the job's counter takes the max — it must never move
// backwards even when the log entries interleave out of claim order.
func (r *record) progress(done, total int, point string, cached bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if done > r.job.Done {
		r.job.Done = done
	}
	r.job.Total = total
	if cached {
		r.job.CacheHits++
	}
	r.appendLocked(Event{Type: EventPoint, Done: done, Total: total, Point: point, Cached: cached}, time.Time{}, nil)
}

// eventsFrom returns the log entries at index ≥ from, whether the job is
// terminal, and — when there is nothing new yet — a channel closed on the
// next append. Streams loop on it: drain, deliver, wait, repeat.
func (r *record) eventsFrom(from int) (evs []Event, terminal bool, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < len(r.events) {
		return r.events[from:len(r.events):len(r.events)], r.job.State.Terminal(), nil
	}
	if r.job.State.Terminal() {
		return nil, true, nil
	}
	w := make(chan struct{})
	r.waiters = append(r.waiters, w)
	return nil, false, w
}

// store is the concurrency-safe job table: id allocation, lookup, and
// ordered listing. Records are never removed — the daemon's job history is
// its in-memory log, durable across restarts when a WAL is attached.
type store struct {
	mu     sync.RWMutex
	jobs   map[string]*record
	order  []string
	nextID int
	w      *wal // nil when the store is not durable
}

func newStore() *store {
	return &store{jobs: make(map[string]*record)}
}

// add allocates an id, registers a queued record for spec, persists the
// submission to the WAL, and returns the record.
// The id counter survives restarts: replay seeds it past every replayed
// job (see parseJobID), so post-restart ids never collide.
func (st *store) add(spec JobSpec, now time.Time) *record {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	id := formatJobID(st.nextID)
	rec := &record{job: Job{ID: id, Spec: spec, State: StateQueued, CreatedAt: now}, w: st.w}
	rec.events = append(rec.events, Event{Seq: 0, Job: id, Type: EventState, State: StateQueued})
	st.jobs[id] = rec
	st.order = append(st.order, id)
	// The submit record implies the Seq-0 queued event above; replay
	// synthesizes it, so it is not logged separately.
	st.w.append(walRecord{Kind: walKindSubmit, Job: id, Time: now, Spec: &spec})
	return rec
}

// formatJobID renders the n-th job id ("j000001", ...).
func formatJobID(n int) string { return fmt.Sprintf("j%06d", n) }

// get looks a record up by id.
func (st *store) get(id string) (*record, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec, ok := st.jobs[id]
	return rec, ok
}

// list returns snapshots of every job in submission order.
func (st *store) list() []Job {
	st.mu.RLock()
	ids := append([]string(nil), st.order...)
	recs := make([]*record, len(ids))
	for i, id := range ids {
		recs[i] = st.jobs[id]
	}
	st.mu.RUnlock()
	jobs := make([]Job, len(recs))
	for i, rec := range recs {
		jobs[i] = rec.snapshot()
	}
	return jobs
}
