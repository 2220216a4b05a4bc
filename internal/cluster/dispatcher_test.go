package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// newOneShardDispatcher returns a dispatcher over a one-point grid split
// into a single queued shard.
func newOneShardDispatcher(workers int) *dispatcher {
	sh := &shardState{indexes: []int{0}}
	d := &dispatcher{
		points:  make([]sweep.Point, 1),
		queue:   []*shardState{sh},
		shards:  []*shardState{sh},
		undone:  1,
		live:    workers,
		results: make([]sweep.PointResult, 1),
		filled:  make([]bool, 1),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// nextAsync runs d.next for worker in a goroutine and delivers its result.
func nextAsync(ctx context.Context, d *dispatcher, worker string, stealAfter time.Duration) <-chan *attempt {
	out := make(chan *attempt, 1)
	go func() { out <- d.next(ctx, worker, stealAfter) }()
	return out
}

// TestNextWakesOnCommit: with stealing an hour away, a worker blocked in
// next has nothing to wait for but events. The in-flight shard's commit
// ends the run, and the blocked worker must return nil at once rather
// than sleep until the candidate ripens.
func TestNextWakesOnCommit(t *testing.T) {
	d := newOneShardDispatcher(2)
	ctx := context.Background()
	at := d.next(ctx, "a", time.Hour)
	if at == nil {
		t.Fatal("first next returned nil with a shard queued")
	}
	got := nextAsync(ctx, d, "b", time.Hour)
	select {
	case b := <-got:
		t.Fatalf("next returned %v before the in-flight shard committed", b)
	case <-time.After(50 * time.Millisecond):
	}

	d.commit(at, &service.ShardArtifact{Points: []service.ShardPoint{{Index: 0}}})
	select {
	case b := <-got:
		if b != nil {
			t.Fatalf("next after the last commit = attempt on %s, want nil", b.worker)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked worker was not woken by the commit")
	}
}

// TestNextStealsWhenCandidateRipens: no event happens while the second
// worker waits, so only the ripening timer can wake it — and it must,
// with a steal of the straggling shard no earlier than stealAfter.
func TestNextStealsWhenCandidateRipens(t *testing.T) {
	const stealAfter = 30 * time.Millisecond
	d := newOneShardDispatcher(2)
	ctx := context.Background()
	at := d.next(ctx, "a", stealAfter)
	if at == nil {
		t.Fatal("first next returned nil with a shard queued")
	}
	select {
	case b := <-nextAsync(ctx, d, "b", stealAfter):
		if b == nil || b.shard != at.shard || b.worker != "b" {
			t.Fatalf("next = %+v, want a steal of worker a's shard", b)
		}
		if age := b.started.Sub(at.started); age < stealAfter {
			t.Errorf("stole after %v, want at least %v", age, stealAfter)
		}
		if d.st.Stolen != 1 {
			t.Errorf("stolen = %d, want 1", d.st.Stolen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked worker was not woken when the candidate ripened")
	}
}

// TestBackpressureBackoffHonoursCancel: a worker that always answers 503
// is backed off for Heartbeat/8 (7.5s here) between attempts. Cancelling
// the dispatch must cut that backoff short instead of waiting it out.
func TestBackpressureBackoffHonoursCancel(t *testing.T) {
	rejected := make(chan struct{}, 1)
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"service: job queue full"}`))
		select {
		case rejected <- struct{}{}:
		default:
		}
	}))
	defer busy.Close()

	c, err := New(Config{Workers: []string{busy.URL}, Heartbeat: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelledAt := make(chan time.Time, 1)
	go func() {
		<-rejected
		time.Sleep(100 * time.Millisecond) // let the worker enter its backoff
		cancelledAt <- time.Now()
		cancel()
	}()
	_, err = c.Dispatch(ctx, quickSweep("s1", 1), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if late := time.Since(<-cancelledAt); late > 3*time.Second {
		t.Errorf("Dispatch returned %v after cancellation, want well under the 7.5s backoff", late)
	}
}
