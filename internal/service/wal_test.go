package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/framing"
)

// eventsOf returns the full event log of one job.
func eventsOf(t *testing.T, svc *Service, id string) []Event {
	t.Helper()
	rec, ok := svc.store.get(id)
	if !ok {
		t.Fatalf("no record for %s", id)
	}
	evs, _, _ := rec.eventsFrom(0)
	return evs
}

// mustJSON marshals for byte-level comparison of replayed state.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDurableRestartReplaysByteIdentically is the tentpole acceptance
// test at the package level: a daemon restarted on the same data
// directory serves the same job table — ids, event logs with their Seq
// numbers, lifecycle timestamps — and byte-identical artifacts, without
// re-executing anything that finished.
func TestDurableRestartReplaysByteIdentically(t *testing.T) {
	dataDir := t.TempDir()
	cacheDir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dataDir, CacheDir: cacheDir}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sweepJob, err := svc1.Submit(JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scenJob, err := svc1.Submit(scenarioSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{sweepJob.ID, scenJob.ID} {
		if final := waitTerminal(t, svc1, id); final.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Error)
		}
	}
	jobs1 := mustJSON(t, svc1.Jobs())
	events1 := map[string]string{
		sweepJob.ID: mustJSON(t, eventsOf(t, svc1, sweepJob.ID)),
		scenJob.ID:  mustJSON(t, eventsOf(t, svc1, scenJob.ID)),
	}
	artifacts1 := map[string][]byte{}
	for _, id := range []string{sweepJob.ID, scenJob.ID} {
		for _, format := range []string{"json", "csv"} {
			data, err := svc1.Artifact(id, format)
			if err != nil {
				t.Fatal(err)
			}
			artifacts1[id+format] = data
		}
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())

	if jobs2 := mustJSON(t, svc2.Jobs()); jobs2 != jobs1 {
		t.Errorf("replayed job table differs:\nbefore: %s\nafter:  %s", jobs1, jobs2)
	}
	for id, want := range events1 {
		if got := mustJSON(t, eventsOf(t, svc2, id)); got != want {
			t.Errorf("replayed event log of %s differs:\nbefore: %s\nafter:  %s", id, want, got)
		}
	}
	for _, id := range []string{sweepJob.ID, scenJob.ID} {
		for _, format := range []string{"json", "csv"} {
			data, err := svc2.Artifact(id, format)
			if err != nil {
				t.Fatalf("replayed artifact %s/%s: %v", id, format, err)
			}
			if string(data) != string(artifacts1[id+format]) {
				t.Errorf("replayed artifact %s/%s differs from the original", id, format)
			}
		}
	}

	// The sweep's total announcement is itself an event, so the replayed
	// log restores the denominator even for a job killed before its first
	// point.
	totals := 0
	for _, ev := range eventsOf(t, svc2, sweepJob.ID) {
		if ev.Type == EventTotal {
			totals++
			if ev.Total == 0 {
				t.Errorf("replayed total event has total 0: %+v", ev)
			}
		}
	}
	if totals == 0 {
		t.Error("no EventTotal in the replayed sweep log")
	}
	if job := mustJob(t, svc2, sweepJob.ID); job.Total == 0 || job.Done != job.Total {
		t.Errorf("replayed progress counters: done=%d total=%d", job.Done, job.Total)
	}
}

// TestDurableRestartSeedsNextID is the id-collision regression test:
// submissions after a restart must continue the id sequence, not restart
// it and overwrite pre-restart jobs.
func TestDurableRestartSeedsNextID(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		job, err := svc1.Submit(scenarioSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc1, job.ID)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	job, err := svc2.Submit(scenarioSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j000003" {
		t.Errorf("post-restart id = %s, want j000003 (continuing the sequence)", job.ID)
	}
	if got := mustJob(t, svc2, "j000001"); got.Spec.Seed != 1 {
		t.Errorf("pre-restart job j000001 overwritten: %+v", got)
	}
}

// TestDurableReplayRequeuesInterruptedJobs hand-writes the WAL a crash
// would leave behind — one job queued, one mid-run — and proves a fresh
// service re-executes both to completion and seeds its id counter past
// them.
func TestDurableReplayRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	// j000006 was queued at crash time; j000007 was running.
	w.append(walRecord{Kind: walKindSubmit, Job: "j000006", Time: t0, Spec: &spec})
	w.append(walRecord{Kind: walKindSubmit, Job: "j000007", Time: t0, Spec: &spec})
	w.append(walRecord{Kind: walKindEvent, Job: "j000007", Time: t0,
		Event: &Event{Seq: 1, Job: "j000007", Type: EventState, State: StateRunning}})
	w.close()

	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	for _, id := range []string{"j000006", "j000007"} {
		if final := waitTerminal(t, svc, id); final.State != StateDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, final.State, final.Error)
		}
		if _, err := svc.Artifact(id, "csv"); err != nil {
			t.Errorf("recovered job %s has no artifact: %v", id, err)
		}
	}
	// The requeue of the interrupted job is itself durably logged: its
	// event log gains a fresh queued transition after the running one.
	evs := eventsOf(t, svc, "j000007")
	if len(evs) < 3 || evs[1].State != StateRunning || evs[2].State != StateQueued {
		t.Errorf("interrupted job's recovery transitions = %+v", evs)
	}
	if job, err := svc.Submit(scenarioSpec(9)); err != nil || job.ID != "j000008" {
		t.Errorf("post-recovery submit = %+v, %v; want id j000008", job, err)
	}
}

// TestWALTornWriteStopsReplayCleanly simulates the torn tails a crash
// can leave: a truncated frame, a corrupted payload, and a short header.
// Replay must keep every intact record before the damage and stop
// cleanly — no error — at the damage itself.
func TestWALTornWriteStopsReplayCleanly(t *testing.T) {
	spec := scenarioSpec(1)
	spec.Normalize()
	goodRec := walRecord{Kind: walKindSubmit, Job: "j000001", Time: time.Now().UTC(), Spec: &spec}
	goodPayload, err := json.Marshal(goodRec)
	if err != nil {
		t.Fatal(err)
	}
	good := frame(goodPayload)

	corrupt := frame(goodPayload)
	corrupt[len(corrupt)-1] ^= 0xFF // payload no longer matches the CRC

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated payload", append(append([]byte{}, good...), good[:len(good)-5]...)},
		{"corrupt checksum", append(append([]byte{}, good...), corrupt...)},
		{"short header", append(append([]byte{}, good...), 0x01, 0x02, 0x03)},
		{"absurd length", append(append([]byte{}, good...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(segmentPath(dir, 1), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := newStore()
			lastSeg, err := st.replayDurable(dir)
			if err != nil {
				t.Fatalf("replay of a torn segment = %v, want clean stop", err)
			}
			if lastSeg != 1 {
				t.Errorf("lastSeg = %d, want 1", lastSeg)
			}
			if len(st.jobs) != 1 {
				t.Fatalf("replayed %d jobs, want the 1 intact record", len(st.jobs))
			}
			if _, ok := st.jobs["j000001"]; !ok {
				t.Error("the intact record before the tear was lost")
			}
		})
	}
}

// TestWALReplayRejectsSeqGap: a WAL whose event Seq numbers skip ahead
// means the snapshot and segments disagree — replay must fail loudly
// rather than serve a silently holed event log.
func TestWALReplayRejectsSeqGap(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.append(walRecord{Kind: walKindSubmit, Job: "j000001", Time: time.Now().UTC(), Spec: &spec})
	w.append(walRecord{Kind: walKindEvent, Job: "j000001",
		Event: &Event{Seq: 5, Job: "j000001", Type: EventState, State: StateRunning}})
	w.close()
	if _, err := newStore().replayDurable(dir); err == nil {
		t.Fatal("replay accepted a Seq gap, want a loud error")
	}
}

// TestSnapshotCompactionRoundTrip drives enough WAL volume to trigger
// compaction, then proves the snapshot+surviving-segments combination
// replays to the identical job table and that old segments were pruned.
// Each fake CSV artifact is a quarter of minCompactBytes, so the done
// frames of the five jobs pass the compaction floor.
func TestSnapshotCompactionRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir}
	fakeCSV := bytes.Repeat([]byte("csv\n"), minCompactBytes/16)
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return []byte("{}\n"), fakeCSV, nil
	}
	for seed := uint64(1); seed <= 5; seed++ {
		job, err := svc1.Submit(scenarioSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc1, job.ID)
	}
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(dataDir, walSnapshotName))
		return err == nil
	})
	// Compaction deletes the rotated-out segments once the snapshot that
	// covers them is published.
	waitFor(t, func() bool {
		segs, err := listSegments(dataDir)
		return err == nil && len(segs) <= 2
	})
	jobs1 := mustJSON(t, svc1.Jobs())
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	if jobs2 := mustJSON(t, svc2.Jobs()); jobs2 != jobs1 {
		t.Errorf("post-compaction replay differs:\nbefore: %s\nafter:  %s", jobs1, jobs2)
	}
	// The snapshot carries the artifacts of the jobs whose done frames
	// were in the pruned segments.
	for _, j := range svc2.Jobs() {
		if csv, err := svc2.Artifact(j.ID, "csv"); err != nil || !bytes.Equal(csv, fakeCSV) {
			t.Errorf("replayed artifact of %s = %d bytes, %v; want the %d-byte fake", j.ID, len(csv), err, len(fakeCSV))
		}
	}
	if st := svc2.Stats(); st.WALErrors != 0 {
		t.Errorf("WALErrors = %d after a clean compaction cycle", st.WALErrors)
	}
}

// TestWALCompactionsGrowLogarithmically appends N equal records to a WAL
// whose compactions publish a snapshot as large as the history so far, as
// a real snapshot of every job is. Tying the trigger to the snapshot's
// size doubles the history between compactions, so N appends cost
// O(log N) compactions; a fixed record-count trigger would cost O(N).
func TestWALCompactionsGrowLogarithmically(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var history int64 // bytes appended so far: the size of a full snapshot
	compactions := 0
	w.notify = func() {
		compactions++
		for _, p := range w.rotate() {
			if err := os.Remove(p); err != nil {
				t.Error(err)
			}
		}
		w.compactionDone(history)
	}
	rec := walRecord{Kind: walKindEvent, Job: "j000001",
		Event: &Event{Job: "j000001", Type: EventState, State: StateRunning, Error: strings.Repeat("x", 4000)}}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := int64(len(frame(payload)))
	const n = 2048
	for i := 0; i < n; i++ {
		history += frameBytes
		w.append(rec)
	}
	if w.errs.Load() != 0 {
		t.Fatalf("%d append errors", w.errs.Load())
	}
	// history ≈ 8 MiB, so the trigger fires at about 1, 2 and 4 MiB.
	maxCompactions := bits.Len64(uint64(history/minCompactBytes)) + 1
	t.Logf("%d equal appends, %d bytes: %d compactions", n, history, compactions)
	if compactions < 1 || compactions > maxCompactions {
		t.Errorf("%d equal appends (%d bytes) caused %d compactions, want 1..%d (about log2 of history/floor)",
			n, history, compactions, maxCompactions)
	}
}

// TestDoneJobWithMissingArtifactsReExecutes: a data directory written
// before artifacts moved into the WAL keeps a done job's results in
// <id>.json and <id>.csv beside a done event that carries none. Durable
// replay must not serve such a job when one of the files vanished — it
// re-executes the job instead of returning a hole, and serves what a
// fresh run of the same spec serves.
func TestDoneJobWithMissingArtifactsReExecutes(t *testing.T) {
	dataDir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	w, err := openWAL(dataDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	w.append(walRecord{Kind: walKindSubmit, Job: "j000001", Time: t0, Spec: &spec})
	for i, st := range []JobState{StateRunning, StateDone} {
		w.append(walRecord{Kind: walKindEvent, Job: "j000001", Time: t0,
			Event: &Event{Seq: i + 1, Job: "j000001", Type: EventState, State: st}})
	}
	w.close()
	// Only the JSON half of the legacy pair survived.
	if err := os.WriteFile(filepath.Join(dataDir, "j000001.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if final := waitTerminal(t, svc, "j000001"); final.State != StateDone {
		t.Fatalf("re-executed job ended %s (%s)", final.State, final.Error)
	}
	got, err := svc.Artifact("j000001", "csv")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, fresh.ID)
	want, err := svc.Artifact(fresh.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-executed artifact differs from a fresh run's:\n%s\nvs\n%s", got, want)
	}
	if evs := eventsOf(t, svc, "j000001"); len(evs) < 4 || evs[2].State != StateDone || evs[3].State != StateQueued {
		t.Errorf("re-executed job's log does not requeue after the replayed done: %+v", evs)
	}
}

// TestFinishedJobCreatesNoFiles: a durable daemon keeps a finished job's
// artifacts in the WAL frame of its done event. The data directory holds
// only the segment New opened, and that segment alone replays the
// artifacts byte for byte.
func TestFinishedJobCreatesNoFiles(t *testing.T) {
	dataDir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, job.ID)
	want := map[string][]byte{}
	for _, format := range []string{"json", "csv"} {
		if want[format], err = svc.Artifact(job.ID, format); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(segmentPath(dataDir, 1)) {
		t.Fatalf("data directory holds %v, want only the first WAL segment", entries)
	}
	var done []*artifacts
	err = readSegment(segmentPath(dataDir, 1), func(wr walRecord) error {
		if wr.Artifacts != nil {
			if wr.Event == nil || wr.Event.State != StateDone {
				t.Errorf("artifacts ride on %+v, want the done state event", wr.Event)
			}
			done = append(done, wr.Artifacts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || !bytes.Equal(done[0].JSON, want["json"]) || !bytes.Equal(done[0].CSV, want["csv"]) {
		t.Fatalf("WAL carries %d artifact pairs, want the served one", len(done))
	}
}

// TestTornDoneFrameReExecutes cuts a finished job's WAL segment at every
// byte of its done frame, as a crash mid-append would. Each cut replays
// the job as running, re-executes it, and serves the CSV the job served
// before the crash.
func TestTornDoneFrameReExecutes(t *testing.T) {
	dataDir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, job.ID)
	want, err := svc.Artifact(job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segmentPath(dataDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The done frame is the segment's last.
	start := 0
	for off := 0; off < len(seg); {
		_, n, ok := framing.Next(seg[off:])
		if !ok {
			t.Fatalf("recorded segment is torn at %d", off)
		}
		start, off = off, off+n
	}
	if p, _, _ := framing.Next(seg[start:]); !bytes.Contains(p, []byte(`"artifacts"`)) {
		t.Fatalf("last frame carries no artifacts: %s", p)
	}
	for cut := start; cut < len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := newStore()
		if _, err := st.replayDurable(dir); err != nil {
			t.Fatalf("cut at %d: replay = %v", cut, err)
		}
		if rec := st.jobs[job.ID]; rec == nil || rec.job.State != StateRunning || rec.art != nil {
			t.Fatalf("cut at %d: replayed job is not running without artifacts", cut)
		}
		svc, err := New(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		final := waitDone(t, svc, job.ID)
		got, err := svc.Artifact(job.ID, "csv")
		if cerr := svc.Close(context.Background()); cerr != nil {
			t.Fatal(cerr)
		}
		if final.State != StateDone || err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: re-executed job ended %s with CSV %q (%v), want %q", cut, final.State, got, err, want)
		}
	}
}

// waitDone blocks on the job's event log until it is terminal — no
// polling, so tests that restart a daemon many times stay fast.
func waitDone(t *testing.T, svc *Service, id string) Job {
	t.Helper()
	rec, ok := svc.store.get(id)
	if !ok {
		t.Fatalf("no record for %s", id)
	}
	timeout := time.After(30 * time.Second)
	for from := 0; ; {
		evs, terminal, wait := rec.eventsFrom(from)
		from += len(evs)
		if terminal {
			return rec.snapshot()
		}
		if wait != nil {
			select {
			case <-wait:
			case <-timeout:
				t.Fatalf("job %s never reached a terminal state", id)
			}
		}
	}
}

// TestArtifactTooLargeFailsJob: artifacts that would not fit in one WAL
// frame fail the job with ErrArtifactTooLarge — logged durably as failed
// — rather than writing a frame replay would stop at. One buffer of just
// over 3/8 of the bound, returned as both artifacts, crosses it once
// base64-encoded, and the check never encodes it.
func TestArtifactTooLargeFailsJob(t *testing.T) {
	dataDir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, framing.MaxPayload*3/8+1)
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return big, big, nil
	}
	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, job.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, ErrArtifactTooLarge.Error()) {
		t.Fatalf("job ended %s (%s), want failed with ErrArtifactTooLarge", final.State, final.Error)
	}
	if _, err := svc.Artifact(job.ID, "csv"); !errors.Is(err, ErrNotDone) {
		t.Errorf("Artifact of the failed job = %v, want ErrNotDone", err)
	}
	if st := svc.Stats(); st.WALErrors != 0 {
		t.Errorf("WALErrors = %d: the oversized frame reached the WAL", st.WALErrors)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	if got := mustJob(t, svc2, job.ID); got.State != StateFailed || got.Error != final.Error {
		t.Errorf("replayed job = %s (%s), want the failure logged before the restart", got.State, got.Error)
	}
	if under := big[:len(big)-2048]; !artifactsFit(under, under) {
		t.Error("artifacts 2 KB shorter each do not fit")
	}
}

// TestReplaysLogsWithTenantFields: daemons that still had tenants wrote a
// "tenant" key on submit frames and on snapshot jobs. Replay decodes
// leniently, so such a data directory restores the same ids, event logs
// and done artifacts, and its queued job runs to done.
func TestReplaysLogsWithTenantFields(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	specJSON := mustJSON(t, spec)
	const t0 = "2026-01-02T03:04:05Z"
	// j000001 finished before the restart and lives in the snapshot.
	doneEvents := `[{"seq":0,"job":"j000001","type":"state","state":"queued"},` +
		`{"seq":1,"job":"j000001","type":"state","state":"running"},` +
		`{"seq":2,"job":"j000001","type":"total","total":2},` +
		`{"seq":3,"job":"j000001","type":"point","done":2,"total":2,"point":"trials=2"},` +
		`{"seq":4,"job":"j000001","type":"state","state":"done"}]`
	snapshot := `{"schema_version":1,"next_id":1,"jobs":[{"job":{"id":"j000001","tenant":"acme","spec":` + specJSON +
		`,"state":"done","done":2,"total":2,"cache_hits":0,"created_at":"` + t0 + `","started_at":"` + t0 +
		`","finished_at":"` + t0 + `"},"events":` + doneEvents + `}]}`
	// j000002 was queued; its submit frame is in the surviving segment.
	submit := `{"kind":"submit","job":"j000002","time":"` + t0 + `","tenant":"acme","spec":` + specJSON + `}`
	files := map[string]string{
		walSnapshotName:    snapshot,
		"j000001.json":     "{\"artifact\": \"from before the restart\"}\n",
		"j000001.csv":      "artifact\nfrom before the restart\n",
		"wal-00000001.log": string(frame([]byte(submit))),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("New on a data directory with tenant fields: %v", err)
	}
	defer svc.Close(context.Background())

	var ids []string
	for _, j := range svc.Jobs() {
		ids = append(ids, j.ID)
	}
	if strings.Join(ids, ",") != "j000001,j000002" {
		t.Fatalf("replayed ids = %v, want [j000001 j000002]", ids)
	}
	var wantEvents []Event
	if err := json.Unmarshal([]byte(doneEvents), &wantEvents); err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, eventsOf(t, svc, "j000001")), mustJSON(t, wantEvents); got != want {
		t.Errorf("replayed event log of j000001:\ngot  %s\nwant %s", got, want)
	}
	for _, format := range []string{"json", "csv"} {
		data, err := svc.Artifact("j000001", format)
		if err != nil {
			t.Fatalf("replayed artifact j000001/%s: %v", format, err)
		}
		if string(data) != files["j000001."+format] {
			t.Errorf("replayed artifact j000001/%s = %q, want the file's bytes", format, data)
		}
	}
	final := waitTerminal(t, svc, "j000002")
	if final.State != StateDone {
		t.Fatalf("requeued job ended %s (%s)", final.State, final.Error)
	}
	if evs := eventsOf(t, svc, "j000002"); evs[0].State != StateQueued || evs[len(evs)-1].State != StateDone {
		t.Errorf("requeued job's event log = %+v", evs)
	}
	if jobs := mustJSON(t, svc.Jobs()); strings.Contains(jobs, "tenant") {
		t.Errorf("replayed job records still carry a tenant: %s", jobs)
	}
	if job, err := svc.Submit(scenarioSpec(2)); err != nil || job.ID != "j000003" {
		t.Errorf("post-replay submit = %+v, %v; want id j000003", job, err)
	}
}

// TestReplaysRetiredSynthKind: a data directory written when synthesis
// batches were jobs of their own kind ("synth") still replays. Its specs
// are normalized like a submission: the queued job runs as a shard over
// its inline grid, with the artifact a fresh shard job of the same grid
// writes, and the finished jobs — one in the snapshot, one in the WAL —
// keep serving their artifacts byte for byte.
func TestReplaysRetiredSynthKind(t *testing.T) {
	dir := t.TempDir()
	const t0 = "2026-01-02T03:04:05Z"
	// A synth spec exactly as the service wrote it back then.
	specJSON := `{"kind":"synth","trials":3,"synth_specs":[` + strconv.Quote(twoStateSpec) +
		`],"synth_ds":[4],"synth_agents":4,"synth_budget_factor":8,"seed":9}`
	events := func(id string) []string {
		return []string{
			`{"seq":1,"job":"` + id + `","type":"state","state":"running"}`,
			`{"seq":2,"job":"` + id + `","type":"total","total":1}`,
			`{"seq":3,"job":"` + id + `","type":"point","done":1,"total":1,"point":"d=4"}`,
			`{"seq":4,"job":"` + id + `","type":"state","state":"done"}`,
		}
	}
	snapshot := `{"schema_version":1,"next_id":1,"jobs":[{"job":{"id":"j000001","spec":` + specJSON +
		`,"state":"done","done":1,"total":1,"cache_hits":0,"created_at":"` + t0 + `","started_at":"` + t0 +
		`","finished_at":"` + t0 + `"},"events":[{"seq":0,"job":"j000001","type":"state","state":"queued"},` +
		strings.Join(events("j000001"), ",") + `]}]}`
	var seg []byte
	seg = append(seg, frame([]byte(`{"kind":"submit","job":"j000002","time":"`+t0+`","spec":`+specJSON+`}`))...)
	for _, ev := range events("j000002") {
		seg = append(seg, frame([]byte(`{"kind":"event","job":"j000002","time":"`+t0+`","event":`+ev+`}`))...)
	}
	seg = append(seg, frame([]byte(`{"kind":"submit","job":"j000003","time":"`+t0+`","spec":`+specJSON+`}`))...)
	files := map[string]string{
		walSnapshotName:    snapshot,
		"wal-00000001.log": string(seg),
	}
	for _, id := range []string{"j000001", "j000002"} {
		files[id+".json"] = "{\"artifact\": \"" + id + " before the restart\"}\n"
		files[id+".csv"] = "artifact\n" + id + " before the restart\n"
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("New on a data directory with synth jobs: %v", err)
	}
	defer svc.Close(context.Background())
	for _, id := range []string{"j000001", "j000002"} {
		if job := mustJob(t, svc, id); job.State != StateDone || job.Spec.Kind != KindShard {
			t.Errorf("replayed %s: state %s kind %q, want done shard", id, job.State, job.Spec.Kind)
		}
		for _, format := range []string{"json", "csv"} {
			data, err := svc.Artifact(id, format)
			if err != nil || string(data) != files[id+"."+format] {
				t.Errorf("replayed artifact %s/%s = %q, %v; want the file's bytes", id, format, data, err)
			}
		}
	}
	queued := waitTerminal(t, svc, "j000003")
	if queued.State != StateDone || queued.Spec.Kind != KindShard {
		t.Fatalf("requeued synth job ended %s as kind %q (%s), want a done shard", queued.State, queued.Spec.Kind, queued.Error)
	}
	fresh, err := svc.Submit(JobSpec{Kind: KindShard, SynthSpecs: []string{twoStateSpec}, SynthDs: []int64{4}, Trials: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Spec, queued.Spec) {
		t.Errorf("replayed spec %+v, a fresh submission normalizes to %+v", queued.Spec, fresh.Spec)
	}
	waitTerminal(t, svc, fresh.ID)
	// The CSV is byte-stable; the JSON differs only in kernel timings.
	var arts [2]*ShardArtifact
	var csvs [2][]byte
	for i, id := range []string{"j000003", fresh.ID} {
		data, err := svc.Artifact(id, "json")
		if err == nil {
			arts[i], err = ParseShardArtifact(data)
		}
		if err == nil {
			csvs[i], err = svc.Artifact(id, "csv")
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range arts[i].Points {
			p.Result.ElapsedSec = 0
		}
	}
	if !bytes.Equal(csvs[0], csvs[1]) || !reflect.DeepEqual(arts[0], arts[1]) {
		t.Errorf("requeued synth job's artifacts differ from a fresh shard job's:\n%+v %s\nvs\n%+v %s", arts[0], csvs[0], arts[1], csvs[1])
	}
	if arts[0].Sweep != "synth" {
		t.Errorf("inline-grid shard artifact records sweep %q, want \"synth\"", arts[0].Sweep)
	}
}

// TestReplayRejectsRecordsTheStoreCannotWrite: an intact frame or
// snapshot entry the store could never have written fails New with
// ErrCorruptLog — ids that would escape the data directory or overflow
// the id counter, events for unknown jobs, and malformed events.
func TestReplayRejectsRecordsTheStoreCannotWrite(t *testing.T) {
	spec := scenarioSpec(1)
	spec.Normalize()
	submit := func(id string) walRecord { return walRecord{Kind: walKindSubmit, Job: id, Spec: &spec} }
	event := func(job string, ev Event) walRecord { return walRecord{Kind: walKindEvent, Job: job, Event: &ev} }
	running := Event{Seq: 1, Job: "j000001", Type: EventState, State: StateRunning}
	cases := []struct {
		name string
		recs []walRecord
	}{
		{"path id", []walRecord{submit("../j000001")}},
		{"unpadded id", []walRecord{submit("j1")}},
		{"counter-overflowing id", []walRecord{submit("j" + strconv.Itoa(math.MaxInt))}},
		{"submit without spec", []walRecord{{Kind: walKindSubmit, Job: "j000001"}}},
		{"unknown kind", []walRecord{submit("j000001"), {Kind: "tenant", Job: "j000001"}}},
		{"event for unknown job", []walRecord{event("j000001", running)}},
		{"event without event", []walRecord{submit("j000001"), {Kind: walKindEvent, Job: "j000001"}}},
		{"event of another job", []walRecord{submit("j000001"), event("j000001", Event{Seq: 1, Job: "j000002", Type: EventState, State: StateRunning})}},
		{"unknown event type", []walRecord{submit("j000001"), event("j000001", Event{Seq: 1, Job: "j000001", Type: "quota"})}},
		{"unknown state", []walRecord{submit("j000001"), event("j000001", Event{Seq: 1, Job: "j000001", Type: EventState, State: "paused"})}},
		{"negative seq", []walRecord{submit("j000001"), event("j000001", Event{Seq: -1, Job: "j000001", Type: EventTotal})}},
		{"seq gap", []walRecord{submit("j000001"), event("j000001", Event{Seq: 2, Job: "j000001", Type: EventTotal})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.recs {
				w.append(rec)
			}
			w.close()
			svc, err := New(Config{Workers: 1, DataDir: dir})
			if err == nil {
				svc.Close(context.Background())
				t.Fatal("New accepted the log")
			}
			if !errors.Is(err, ErrCorruptLog) {
				t.Errorf("New = %v, want ErrCorruptLog", err)
			}
		})
	}

	queued := `{"seq":0,"job":"j000001","type":"state","state":"queued"}`
	snapJob := func(id, events string) string {
		return `{"job":{"id":"` + id + `","spec":` + mustJSON(t, spec) + `,"state":"queued"},"events":[` + events + `]}`
	}
	snapshots := map[string]string{
		"undecodable":    `{"schema_version":1,"jobs":[`,
		"path id":        `{"schema_version":1,"jobs":[` + snapJob("../j000001", queued) + `]}`,
		"repeated id":    `{"schema_version":1,"jobs":[` + snapJob("j000001", queued) + `,` + snapJob("j000001", queued) + `]}`,
		"event seq gap":  `{"schema_version":1,"jobs":[` + snapJob("j000001", strings.Replace(queued, `"seq":0`, `"seq":1`, 1)) + `]}`,
		"overflowing id": `{"schema_version":1,"next_id":` + strconv.Itoa(math.MaxInt) + `,"jobs":[]}`,
	}
	for name, body := range snapshots {
		t.Run("snapshot "+name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walSnapshotName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			svc, err := New(Config{Workers: 1, DataDir: dir})
			if err == nil {
				svc.Close(context.Background())
				t.Fatal("New accepted the snapshot")
			}
			if !errors.Is(err, ErrCorruptLog) {
				t.Errorf("New = %v, want ErrCorruptLog", err)
			}
		})
	}
}

// TestReplayRejectsMisplacedArtifacts: artifacts ride only on a done
// state event, and a snapshot carries them only for a done job; anything
// else is a record the store could not have written.
func TestReplayRejectsMisplacedArtifacts(t *testing.T) {
	spec := scenarioSpec(1)
	spec.Normalize()
	art := &artifacts{JSON: []byte("{}\n"), CSV: []byte("csv\n")}
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.append(walRecord{Kind: walKindSubmit, Job: "j000001", Spec: &spec})
	w.append(walRecord{Kind: walKindEvent, Job: "j000001", Artifacts: art,
		Event: &Event{Seq: 1, Job: "j000001", Type: EventState, State: StateRunning}})
	w.close()
	if _, err := newStore().replayDurable(dir); !errors.Is(err, ErrCorruptLog) {
		t.Errorf("artifacts on a running event: replay = %v, want ErrCorruptLog", err)
	}

	dir = t.TempDir()
	snap := walSnapshot{SchemaVersion: snapshotSchemaVersion, Jobs: []snapshotJob{{
		Job:       Job{ID: "j000001", Spec: spec, State: StateQueued},
		Events:    []Event{{Seq: 0, Job: "j000001", Type: EventState, State: StateQueued}},
		Artifacts: art,
	}}}
	if _, err := writeSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := newStore().replayDurable(dir); !errors.Is(err, ErrCorruptLog) {
		t.Errorf("artifacts on a queued snapshot job: replay = %v, want ErrCorruptLog", err)
	}
}

// recordedSegment runs a short durable daemon — a quick sweep and a
// scenario job to done, a third job cancelled while queued behind them —
// and returns its WAL segment and the segment's JSON payloads in order.
// Apart from timestamps the segment is the same in every process (the
// sweep runs its points on one worker, so its point events keep their
// order), which lets fuzz workers compare against their own recording.
func recordedSegment(tb testing.TB) (seg []byte, payloads [][]byte) {
	tb.Helper()
	dir := tb.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	var ids []string
	for _, spec := range []JobSpec{{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1, Workers: 1}, scenarioSpec(1), scenarioSpec(2)} {
		job, err := svc.Submit(spec)
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	_, _ = svc.Cancel(ids[2]) // ErrTerminal only if the worker already ran it
	for _, id := range ids {
		waitTerminal(tb, svc, id)
	}
	if err := svc.Close(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if seg, err = os.ReadFile(segmentPath(dir, 1)); err != nil {
		tb.Fatal(err)
	}
	err = readSegment(segmentPath(dir, 1), func(wr walRecord) error {
		payload, err := json.Marshal(wr)
		payloads = append(payloads, payload)
		return err
	})
	if err != nil || !bytes.Equal(bytes.Join(framed(payloads), nil), seg) {
		tb.Fatalf("re-encoding the recorded segment does not reproduce it (err %v)", err)
	}
	return seg, payloads
}

// frame frames one payload with the WAL's length+CRC header.
func frame(payload []byte) []byte { return framing.Encode(payload) }

// framed frames each payload with the WAL's length+CRC header.
func framed(payloads [][]byte) [][]byte {
	out := make([][]byte, len(payloads))
	for i, p := range payloads {
		out[i] = frame(p)
	}
	return out
}

// checkReplayedStore asserts the invariants every replayed store must
// hold: each listed job once, under an id add could have issued and the
// id counter covers, with an event log that starts queued, numbers its
// events densely, names only its own job, and ends in the job's state.
func checkReplayedStore(t *testing.T, st *store) {
	t.Helper()
	if len(st.order) != len(st.jobs) {
		t.Fatalf("%d ids listed for %d jobs", len(st.order), len(st.jobs))
	}
	for _, id := range st.order {
		rec := st.jobs[id]
		n, ok := parseJobID(id)
		if rec == nil || !ok || n > st.nextID || rec.job.ID != id {
			t.Fatalf("job %q: record %v, id ok %v, counter %d", id, rec != nil, ok, st.nextID)
		}
		if len(rec.events) == 0 || rec.events[0].Type != EventState || rec.events[0].State != StateQueued {
			t.Fatalf("job %s log does not start queued: %+v", id, rec.events)
		}
		state := StateQueued
		for i, ev := range rec.events {
			if ev.Seq != i || ev.Job != id || !validEvent(ev) {
				t.Fatalf("job %s event %d is malformed: %+v", id, i, ev)
			}
			if ev.Type == EventState {
				state = ev.State
			}
		}
		if rec.job.State != state {
			t.Fatalf("job %s is %s but its log ends %s", id, rec.job.State, state)
		}
	}
}

// FuzzWALReplay mutates a WAL segment recorded by a real durable run and
// replays it the way New does: the segment's frames through
// applyWALRecord, then the recovery pass that requeues unfinished jobs
// (the worker pool is not started, so no mutant executes). With reframe
// set, the input is instead a list of newline-separated JSON payloads,
// each framed with a valid CRC, so mutants get past the torn-frame check
// into applyWALRecord. Every mutant must replay to a consistent store or
// fail with ErrCorruptLog, and never panic. A byte-mutated segment can
// only lose, repeat or reorder intact frames, so its replayed jobs must
// also carry the recorded specs and a prefix of the recorded event logs.
func FuzzWALReplay(f *testing.F) {
	seg, payloads := recordedSegment(f)
	f.Add(seg, false)
	f.Add(bytes.Join(payloads, []byte("\n")), true)
	// A job whose done frame carries artifacts with every byte value.
	spec := scenarioSpec(1)
	spec.Normalize()
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	var done [][]byte
	for _, wr := range []walRecord{
		{Kind: walKindSubmit, Job: "j000001", Spec: &spec},
		{Kind: walKindEvent, Job: "j000001", Event: &Event{Seq: 1, Job: "j000001", Type: EventState, State: StateRunning}},
		{Kind: walKindEvent, Job: "j000001", Event: &Event{Seq: 2, Job: "j000001", Type: EventState, State: StateDone},
			Artifacts: &artifacts{JSON: []byte("{}\n"), CSV: every}},
	} {
		payload, err := json.Marshal(wr)
		if err != nil {
			f.Fatal(err)
		}
		done = append(done, payload)
	}
	f.Add(bytes.Join(done, []byte("\n")), true)
	recorded := newStore()
	if err := readFrames(seg, recorded.applyWALRecord); err != nil {
		f.Fatal(err)
	}
	dataDir := f.TempDir() // holds no legacy artifact files: recovery requeues done jobs whose records lack artifacts
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = bytes.Join(framed(bytes.Split(data, []byte("\n"))), nil)
		}
		st := newStore()
		if err := readFrames(data, st.applyWALRecord); err != nil {
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("replay failed with %v, want ErrCorruptLog", err)
			}
			return
		}
		checkReplayedStore(t, st)
		for id, rec := range st.jobs {
			if rec.art != nil && rec.job.State != StateDone {
				t.Fatalf("job %s is %s but holds artifacts", id, rec.job.State)
			}
		}
		if !reframe {
			for id, rec := range st.jobs {
				want := recorded.jobs[id]
				if want == nil || mustJSON(t, rec.job.Spec) != mustJSON(t, want.job.Spec) ||
					len(rec.events) > len(want.events) ||
					mustJSON(t, rec.events) != mustJSON(t, want.events[:len(rec.events)]) {
					t.Fatalf("job %s replayed to a log the recorded run never wrote: %+v", id, rec.events)
				}
				// The JSON artifacts carry timings, which differ between
				// fuzz workers; the CSVs are byte-stable.
				if rec.art != nil && (want.art == nil || !bytes.Equal(rec.art.CSV, want.art.CSV)) {
					t.Fatalf("job %s replayed artifacts the recorded run never wrote", id)
				}
			}
		}
		s := &Service{cfg: Config{DataDir: dataDir}, store: st}
		s.recoverDurable()
		queued := 0
		for _, job := range st.list() {
			if job.State == StateQueued {
				queued++
			}
		}
		if s.qlive != queued || len(s.qitems) != queued {
			t.Fatalf("recovery queued %d (%d entries) of %d queued jobs", s.qlive, len(s.qitems), queued)
		}
		for _, job := range st.list() {
			if rec, _ := st.get(job.ID); job.State == StateDone && rec.art == nil {
				t.Fatalf("recovery left done job %s without artifacts", job.ID)
			}
		}
	})
}
