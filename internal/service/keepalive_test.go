package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEventStreamKeepaliveSSE: an idle SSE stream emits comment frames
// on the keepalive cadence, and real events still arrive after them.
func TestEventStreamKeepaliveSSE(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc, err := New(Config{Workers: 1, EventKeepalive: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		started <- rec.snapshot().ID
		select {
		case <-release:
			return []byte("{}\n"), []byte("csv\n"), nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running and will stay silent until released

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sawKeepalive, released := false, false
	var lastState JobState
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == ": keepalive":
			sawKeepalive = true
			if !released {
				released = true
				close(release) // first keepalive seen: let the job finish
			}
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("SSE event does not parse: %v (%q)", err, line)
			}
			if ev.Type == EventState {
				lastState = ev.State
			}
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawKeepalive {
		t.Error("idle SSE stream emitted no keepalive comment")
	}
	if lastState != StateDone {
		t.Errorf("stream ended on state %q, want done after the keepalives", lastState)
	}
}

// TestEventStreamKeepaliveNDJSON: an idle NDJSON stream emits blank
// lines — whitespace to any JSON decoder — and the Go client's stream
// reader is oblivious to them.
func TestEventStreamKeepaliveNDJSON(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc, err := New(Config{Workers: 1, EventKeepalive: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		started <- rec.snapshot().ID
		select {
		case <-release:
			return []byte("{}\n"), []byte("csv\n"), nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Raw framing check: the idle stream produces a blank keepalive line.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	sawBlank := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if strings.TrimSpace(line) == "" {
			sawBlank = true
			break
		}
	}
	resp.Body.Close()
	if !sawBlank {
		t.Fatal("idle NDJSON stream emitted no blank keepalive line")
	}

	// Client-level check: Wait consumes a keepalive-bearing stream
	// without tripping over the blank lines.
	waitDone := make(chan error, 1)
	go func() {
		_, err := client.Wait(ctx, job.ID)
		waitDone <- err
	}()
	time.Sleep(60 * time.Millisecond) // several keepalive periods on the open stream
	close(release)
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("Wait over a keepalive-bearing stream: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait never returned")
	}
}

// failAfterWriter fails every Write after the first n, standing in for a
// client whose connection died.
type failAfterWriter struct {
	n      int
	writes int
}

func (w *failAfterWriter) Header() http.Header { return http.Header{} }

func (w *failAfterWriter) WriteHeader(int) {}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

// TestEventStreamExitsOnWriteError: a dead connection must release its
// handler goroutine at the next write — event or keepalive — instead of
// spinning until the job ends.
func TestEventStreamExitsOnWriteError(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	defer close(release) // the blocked job only ends at cleanup, long after the handler must have exited
	svc, err := New(Config{Workers: 1, EventKeepalive: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		started <- rec.snapshot().ID
		select {
		case <-release:
			return []byte("{}\n"), []byte("csv\n"), nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	for _, tc := range []struct {
		name string
		n    int // writes that succeed before the connection "dies"
	}{
		{"event write fails", 0},     // the very first replayed event hits the dead connection
		{"keepalive write fails", 2}, // history replays fine; the first keepalive hits it
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
			done := make(chan struct{})
			go func() {
				svc.handleEvents(&failAfterWriter{n: tc.n}, req)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("handler kept running after the connection died")
			}
		})
	}
}

// TestClientWaitReusesConnection: sequential submit/wait/result cycles
// run over one keep-alive connection. Wait reads the finished event stream
// to its end before closing it; closing it at the terminal event instead
// makes the transport drop the connection and dial a new one.
func TestClientWaitReusesConnection(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("csv\n"), nil
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		job, err := client.Submit(ctx, scenarioSpec(uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		if final, err := client.Wait(ctx, job.ID); err != nil || final.State != StateDone {
			t.Fatalf("cycle %d: Wait = %s, %v", i, final.State, err)
		}
		if _, err := client.Result(ctx, job.ID, "csv"); err != nil {
			t.Fatalf("cycle %d: Result: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("10 sequential submit/wait/result cycles opened %d connections, want 1", n)
	}
}
