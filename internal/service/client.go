package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is the Go client of the antsimd HTTP API. The zero value is not
// usable; construct one with NewClient. All methods are safe for
// concurrent use.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). It uses http.DefaultClient's transport;
// streaming calls hold their connection until the stream ends.
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{}}
}

// APIError is a non-2xx response from the daemon: the HTTP status code and
// the server's error message.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
}

// Error renders the API error.
func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// do issues a request and decodes the JSON response into out (when
// non-nil), converting non-2xx responses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError turns a non-2xx response into an *APIError, falling back
// to the raw body when it is not the JSON error envelope. A transport
// failure while reading the body surfaces in the message instead of
// masquerading as an empty server error.
func decodeAPIError(resp *http.Response) error {
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes))
	if rerr != nil {
		return &APIError{Status: resp.StatusCode, Message: fmt.Sprintf("(error body unreadable: %v)", rerr)}
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != "" {
		return &APIError{Status: resp.StatusCode, Message: eb.Error}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
}

// Healthz checks the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Stats fetches the daemon's aggregate state.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Submit posts a job spec and returns the queued job record.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &job)
	return job, err
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	return job, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Cancel requests cancellation of a job (queued: immediate; running:
// asynchronous — watch Events for the terminal state).
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	return job, err
}

// Result fetches a finished job's artifact; format is "json" (default
// when empty) or "csv".
func (c *Client) Result(ctx context.Context, id, format string) ([]byte, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// EventStream is an open NDJSON event stream of one job. Read it with
// Next until io.EOF (the job reached a terminal state), and Close it when
// done to release the connection.
type EventStream struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// Next returns the next event. It blocks until one arrives and returns
// io.EOF when the stream ends (the job is terminal).
func (es *EventStream) Next() (Event, error) {
	var ev Event
	err := es.dec.Decode(&ev)
	return ev, err
}

// Close releases the stream's connection. It is safe to call after EOF.
func (es *EventStream) Close() error { return es.body.Close() }

// streamDrainLimit bounds how many bytes Wait reads past a stream's
// terminal event. The daemon ends the response right after that event, so
// the rest is a chunk trailer; the bound only guards against a peer that
// keeps writing.
const streamDrainLimit = 64 << 10

// drain reads the stream to EOF (at most streamDrainLimit bytes), so
// closing it hands the keep-alive connection back to the transport's pool
// instead of dropping it.
func (es *EventStream) drain() {
	_, _ = io.Copy(io.Discard, io.LimitReader(es.body, streamDrainLimit))
}

// Events opens the job's event stream: the full history replays first,
// then live events follow until the job is terminal. Cancel ctx to abandon
// the stream early.
func (c *Client) Events(ctx context.Context, id string) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return &EventStream{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
}

// JobFailedError is returned by Wait when the job ends in the failed
// state. It carries the job's terminal failure message — the kernel error
// the daemon logged on the failed event — so callers see the actual cause
// instead of a generic status error.
type JobFailedError struct {
	// ID is the failed job's id.
	ID string
	// Message is the failure message from the job's terminal failed event.
	Message string
}

// Error renders the failure with its original message.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("service: job %s failed: %s", e.ID, e.Message)
}

// Wait follows the job's event stream until it reaches a terminal state
// and returns the final job record. It needs no polling interval — the
// daemon pushes the terminal transition. A job that ends in the failed
// state additionally returns a *JobFailedError carrying the terminal
// event's error message (done and cancelled jobs return a nil error; the
// caller reads the state off the record).
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	es, err := c.Events(ctx, id)
	if err != nil {
		return Job{}, err
	}
	defer es.Close()
	failMsg := ""
	for {
		ev, err := es.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Job{}, err
		}
		if ev.Type == EventState && ev.State.Terminal() {
			if ev.State == StateFailed {
				failMsg = ev.Error
			}
			es.drain()
			break
		}
	}
	job, err := c.Job(ctx, id)
	if err != nil {
		return Job{}, err
	}
	if job.State == StateFailed {
		if failMsg == "" {
			failMsg = job.Error
		}
		return job, &JobFailedError{ID: id, Message: failMsg}
	}
	return job, nil
}

// Join registers (or refreshes) a worker's membership in the daemon's
// cluster fleet; addr is the worker's base URL and id its stable identity
// (may be empty). Workers call it on a heartbeat interval — membership
// expires when the heartbeats stop, and a re-join under the same id from
// a new address displaces the stale entry immediately.
func (c *Client) Join(ctx context.Context, addr, id string) (WorkerInfo, error) {
	var info WorkerInfo
	body := map[string]string{"addr": addr}
	if id != "" {
		body["id"] = id
	}
	err := c.do(ctx, http.MethodPost, "/v1/cluster/join", body, &info)
	return info, err
}

// ClusterWorkers lists the daemon's live worker fleet.
func (c *Client) ClusterWorkers(ctx context.Context) ([]WorkerInfo, error) {
	var out struct {
		Workers []WorkerInfo `json:"workers"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/cluster/workers", nil, &out)
	return out.Workers, err
}
