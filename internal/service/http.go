package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Route is one entry of the HTTP route table: the method, the
// net/http-style pattern it is registered under, and a one-line summary.
// RouteTable is the single source of truth — the mux is built from it, the
// antsimd -routes flag prints it, and the docs tests audit docs/API.md
// against it.
type Route struct {
	// Method is the HTTP method ("GET", "POST", "DELETE").
	Method string `json:"method"`
	// Pattern is the ServeMux pattern ("/v1/jobs/{id}").
	Pattern string `json:"pattern"`
	// Summary is a one-line description of the endpoint.
	Summary string `json:"summary"`
}

// RouteTable returns the service's HTTP endpoints. The slice is a copy.
func RouteTable() []Route {
	return []Route{
		{"GET", "/v1/healthz", "liveness probe: status, uptime, draining flag"},
		{"GET", "/v1/stats", "aggregate state: queue depth, jobs by state, points/sec, cache hit rate"},
		{"GET", "/v1/monitor", "fleet-health control charts: per-series estimator state, overall verdict, recent transitions"},
		{"POST", "/v1/jobs", "submit a job spec; returns the queued job record"},
		{"GET", "/v1/jobs", "list every job in submission order"},
		{"GET", "/v1/jobs/{id}", "fetch one job record"},
		{"DELETE", "/v1/jobs/{id}", "cancel a queued or running job"},
		{"GET", "/v1/jobs/{id}/events", "stream the job's event log as NDJSON (or SSE), replay then follow"},
		{"GET", "/v1/jobs/{id}/result", "fetch a finished job's artifact (?format=json|csv)"},
		{"POST", "/v1/cluster/join", "register (or refresh) a worker in this coordinator's fleet"},
		{"GET", "/v1/cluster/workers", "list the live worker fleet (heartbeats within the TTL)"},
	}
}

// Handler returns the service's HTTP API as an http.Handler, one handler
// per RouteTable entry.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/monitor", s.handleMonitor)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
	return mux
}

// errorBody is the uniform JSON error envelope: {"error": "..."}.
type errorBody struct {
	// Error is the human-readable error message.
	Error string `json:"error"`
}

// writeError maps a service error to its HTTP status and writes the JSON
// error envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBadFormat), errors.Is(err, ErrInvalidSpec):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON writes v as an indented JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSpecBytes bounds the request body of a job submission.
const maxSpecBytes = 1 << 20

// handleHealthz is O(1) by design — liveness probes arrive every few
// seconds and must not scale with the daemon's job history (unlike
// /v1/stats, which snapshots the whole job table).
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.start).Seconds(),
		"draining":   s.draining(),
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleMonitor(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MonitorState())
}

// decodeSpec decodes a job submission body: one JSON object, unknown
// fields rejected.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode job spec: %v", err)})
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]Job{"jobs": s.Jobs()})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	data, err := s.Artifact(r.PathValue("id"), format)
	if err != nil {
		writeError(w, err)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleClusterJoin registers a worker heartbeat: body {"addr": "...",
// "id": "..."} (id optional). Joining is idempotent and doubles as the
// heartbeat — workers re-post on an interval and fall out of the fleet
// when they stop. A stable id lets a restarted worker that comes back on
// a new port displace its stale registration immediately instead of the
// coordinator waiting out the TTL.
func (s *Service) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Addr string `json:"addr"`
		ID   string `json:"id"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode join request: %v", err)})
		return
	}
	info, err := s.JoinWorker(body.Addr, body.ID)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleClusterWorkers lists the live fleet.
func (s *Service) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]WorkerInfo{"workers": s.ClusterWorkers()})
}

// DefaultEventKeepalive is the idle-stream keepalive cadence of
// /v1/jobs/{id}/events: how often a stream with no new events emits a
// comment frame (SSE) or blank line (NDJSON) so proxies and load
// balancers do not reap the connection as idle (Config.EventKeepalive
// overrides).
const DefaultEventKeepalive = 15 * time.Second

// handleEvents streams a job's event log: the full history replays first,
// then new events follow live until the job reaches a terminal state or
// the client goes away. The format is NDJSON (one Event JSON object per
// line) by default, or SSE ("data: <event JSON>\n\n" frames) when the
// request's Accept header names text/event-stream. Idle streams emit
// keepalive frames — ": keepalive\n\n" comments for SSE, a blank line for
// NDJSON (whitespace to any JSON decoder) — and the handler exits on the
// first write error, so a dead connection releases its goroutine at the
// next event or keepalive instead of spinning until the job ends.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	keep := time.NewTicker(s.cfg.EventKeepalive)
	defer keep.Stop()

	next := 0
	for {
		evs, terminal, wait := rec.eventsFrom(next)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				_, err = fmt.Fprintf(w, "data: %s\n\n", data)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", data)
			}
			if err != nil {
				return // dead connection
			}
			next = ev.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal && wait == nil && len(evs) == 0 {
			return
		}
		if wait == nil {
			continue // drained a batch; re-check for more or terminal
		}
		select {
		case <-wait:
		case <-keep.C:
			var err error
			if sse {
				_, err = io.WriteString(w, ": keepalive\n\n")
			} else {
				_, err = io.WriteString(w, "\n")
			}
			if err != nil {
				return // dead connection
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
