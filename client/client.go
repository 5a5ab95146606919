// Package client is the typed Go client for the numaplaced wire protocol.
// Callers never touch JSON or HTTP status codes: requests are plain Go
// values, failures come back as *Error carrying the stable wire code, and
// — for every code backed by an nperr sentinel — errors.Is against the
// sentinel works exactly as it does in-process:
//
//	_, err := c.Place(ctx, "gcc", 16)
//	if errors.Is(err, nperr.ErrFleetFull) { ... }
//
// Transport failures and 5xx responses are retried with exponential
// backoff (context-aware); 4xx rejections are returned immediately —
// retrying an unchanged rejected request is pointless. Note the one
// retry hazard inherent to non-idempotent admissions: a connection that
// dies after the daemon commits but before the response arrives can
// double-admit on retry. Disable retries (WithRetries(0)) when that
// matters more than availability.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Client talks to one numaplaced daemon. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration

	// The two verbs of an admission cycle keep their parsed request for the
	// Client's life; every other verb parses its own per call.
	place, release route
	// bufs recycles the buffers Place responses are read into.
	bufs sync.Pool
}

// route is one verb's request, parsed: send clones it per attempt.
type route struct {
	method, path string
	req          *http.Request
	err          error // base does not parse: reported by each call
}

func (c *Client) route(method, path string) route {
	req, err := http.NewRequest(method, c.base+path, nil)
	return route{method: method, path: path, req: req, err: err}
}

// jsonContentType is every request's Content-Type value, shared: a transport
// that wants to change a header clones the request first, as RoundTripper
// requires.
var jsonContentType = []string{"application/json"}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times a retryable failure (transport error or
// 5xx) is retried after the first attempt; 0 disables retrying.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the initial retry backoff (doubled per attempt).
func WithBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// New builds a client for the daemon at base, e.g.
// "http://127.0.0.1:7070". Defaults: 3 retries, 10ms initial backoff, no
// overall timeout (pass a context), and a connection pool sized for many
// concurrent callers against one daemon — the stdlib default of 2 idle
// connections per host would re-dial constantly under load-generator
// concurrency and dominate observed latency.
func New(base string, opts ...Option) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 512
	tr.MaxIdleConnsPerHost = 256
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Transport: tr},
		retries: 3,
		backoff: 10 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	c.place = c.route(http.MethodPost, "/v1/place")
	c.release = c.route(http.MethodPost, "/v1/release")
	c.bufs.New = func() any { return new(bytes.Buffer) }
	return c
}

// Error is a non-2xx daemon response. Unwrap exposes the nperr sentinel
// behind sentinel-backed codes, so errors.Is works across the wire.
type Error struct {
	Code     wire.ErrCode
	Status   int
	Message  string
	Report   *wire.Report // partial pass report, when the operation carries one
	sentinel error
}

func (e *Error) Error() string {
	return fmt.Sprintf("numaplaced: %s (http %d): %s", e.Code, e.Status, e.Message)
}

// Unwrap returns the nperr sentinel behind the wire code (nil for generic
// codes such as bad_request).
func (e *Error) Unwrap() error { return e.sentinel }

// retryable reports whether a response status merits a retry: only 5xx —
// the daemon uses 503 for "no healthy backend, back off", and 4xx means
// the request itself is the problem.
func retryable(status int) bool { return status >= 500 }

// do runs one cold request with retry; body may be nil for GETs. The decoded
// 2xx body lands in out (skipped when out is nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
	}
	rt := c.route(method, path)
	return c.send(ctx, &rt, payload, out)
}

// send runs rt with retry, inside http.Client.Do. Each attempt is a shallow
// copy of the parsed request with its own header map and body — a bytes.Reader
// under NopCloser, the shape net/http knows to be in memory (it flushes the
// headers of any other in a write of their own). payload itself is never
// reused by the Client, since a transport may still read a body after
// RoundTrip has returned.
func (c *Client) send(ctx context.Context, rt *route, payload []byte, out any) error {
	if rt.err != nil {
		return fmt.Errorf("client: %s %s: %w", rt.method, rt.path, rt.err)
	}
	backoff := c.backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		req := rt.req.WithContext(ctx)
		if payload == nil {
			req.Header = http.Header{}
		} else {
			req.Header = http.Header{"Content-Type": jsonContentType}
			req.ContentLength = int64(len(payload))
			req.GetBody = func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(payload)), nil
			}
			req.Body, _ = req.GetBody()
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			// Transport failure (refused, reset, broken pipe): retryable.
			lastErr = fmt.Errorf("client: %s %s: %w", rt.method, rt.path, err)
		} else {
			done, err := c.consume(resp, rt.method, rt.path, out)
			if done {
				return err
			}
			lastErr = err // retryable 5xx, decoded into *Error
		}
		if attempt >= c.retries {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// consume decodes one response; done=false means the caller should retry.
func (c *Client) consume(resp *http.Response, method, path string, out any) (done bool, err error) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return true, nil
		}
		var body io.Reader = resp.Body
		if pr, ok := out.(*wire.PlaceResponse); ok {
			// The hot response is read whole into a pooled buffer and
			// recognised there. What the recogniser declines goes to
			// encoding/json as every other response does: the bytes read,
			// then the error that ended them, if one did.
			buf := c.bufs.Get().(*bytes.Buffer)
			defer c.bufs.Put(buf)
			buf.Reset()
			_, rerr := buf.ReadFrom(resp.Body)
			if rerr == nil && wire.DecodePlaceResponse(buf.Bytes(), pr) {
				return true, nil
			}
			body = io.MultiReader(buf, errReader{rerr})
		}
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return true, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
		return true, nil
	}
	var eb wire.ErrorBody
	werr := &Error{Status: resp.StatusCode, Code: wire.CodeInternal}
	if derr := json.NewDecoder(resp.Body).Decode(&eb); derr == nil && eb.Error.Code != "" {
		werr.Code = eb.Error.Code
		werr.Message = eb.Error.Message
		werr.Report = eb.Error.Report
		werr.sentinel = wire.SentinelFor(eb.Error.Code)
	} else {
		werr.Message = fmt.Sprintf("http %d with undecodable body", resp.StatusCode)
	}
	return !retryable(resp.StatusCode), werr
}

// errReader ends a stream with err (io.EOF when nil).
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) {
	if r.err == nil {
		return 0, io.EOF
	}
	return 0, r.err
}

// Place admits one container of the named workload and returns its
// fleet-wide handle and concrete assignment.
func (c *Client) Place(ctx context.Context, workload string, vcpus int) (*wire.PlaceResponse, error) {
	var out wire.PlaceResponse
	payload := wire.AppendPlaceRequest(make([]byte, 0, len(workload)+32), workload, vcpus)
	if err := c.send(ctx, &c.place, payload, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Release evicts a placed container by its fleet-wide ID.
func (c *Client) Release(ctx context.Context, id int) error {
	return c.send(ctx, &c.release, wire.AppendRelease(make([]byte, 0, 32), id), nil)
}

// Rebalance runs one fleet-wide rebalance pass under a migration-seconds
// budget (<= 0: unbudgeted).
func (c *Client) Rebalance(ctx context.Context, budgetSeconds float64) (*wire.Report, error) {
	var out wire.Report
	if err := c.do(ctx, http.MethodPost, "/v1/rebalance", wire.RebalanceRequest{BudgetSeconds: budgetSeconds}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drain moves every tenant off the named backend and closes it to
// admissions.
func (c *Client) Drain(ctx context.Context, backend string) (*wire.Report, error) {
	var out wire.Report
	if err := c.do(ctx, http.MethodPost, "/v1/drain", wire.BackendRequest{Backend: backend}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Resume reopens a drained backend for admissions.
func (c *Client) Resume(ctx context.Context, backend string) error {
	return c.do(ctx, http.MethodPost, "/v1/resume", wire.BackendRequest{Backend: backend}, nil)
}

// Heartbeat records one answered probe and returns the backend's health.
func (c *Client) Heartbeat(ctx context.Context, backend string) (string, error) {
	var out wire.HealthResponse
	if err := c.do(ctx, http.MethodPost, "/v1/heartbeat", wire.BackendRequest{Backend: backend}, &out); err != nil {
		return "", err
	}
	return out.Health, nil
}

// MissProbe records one missed probe; if it triggered the dead transition
// the response carries the automatic failover report.
func (c *Client) MissProbe(ctx context.Context, backend string) (*wire.HealthResponse, error) {
	var out wire.HealthResponse
	if err := c.do(ctx, http.MethodPost, "/v1/missprobe", wire.BackendRequest{Backend: backend}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fail declares a backend dead immediately and returns the failover report.
func (c *Client) Fail(ctx context.Context, backend string) (*wire.Report, error) {
	var out wire.Report
	if err := c.do(ctx, http.MethodPost, "/v1/fail", wire.BackendRequest{Backend: backend}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Failover retries stranded tenants of a dead backend under a budget.
func (c *Client) Failover(ctx context.Context, backend string, budgetSeconds float64) (*wire.Report, error) {
	var out wire.Report
	if err := c.do(ctx, http.MethodPost, "/v1/failover", wire.FailoverRequest{Backend: backend, BudgetSeconds: budgetSeconds}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Revive readmits a dead backend, returning how many stale engine-side
// records were fenced.
func (c *Client) Revive(ctx context.Context, backend string) (int, error) {
	var out wire.ReviveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/revive", wire.BackendRequest{Backend: backend}, &out); err != nil {
		return 0, err
	}
	return out.Fenced, nil
}

// Stats fetches the fleet-wide snapshot.
func (c *Client) Stats(ctx context.Context) (*wire.Stats, error) {
	var out wire.Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Assignments lists every live admission.
func (c *Client) Assignments(ctx context.Context) ([]wire.PlaceResponse, error) {
	var out wire.AssignmentsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/assignments", nil, &out); err != nil {
		return nil, err
	}
	return out.Assignments, nil
}

// LogHead reads the daemon's durability position: last logged sequence,
// newest snapshot, and what boot-time recovery replayed. Persistent is
// false when the daemon runs without a write-ahead log.
func (c *Client) LogHead(ctx context.Context) (*wire.LogHead, error) {
	var out wire.LogHead
	if err := c.do(ctx, http.MethodGet, "/v1/log/head", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot forces a checkpoint and returns the sequence it covers.
// Against a daemon without persistence the error satisfies
// errors.Is(err, nperr.ErrLogClosed).
func (c *Client) Snapshot(ctx context.Context) (uint64, error) {
	var out wire.SnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/snapshot", nil, &out); err != nil {
		return 0, err
	}
	return out.Seq, nil
}

// HealthOf reads one backend's health state.
func (c *Client) HealthOf(ctx context.Context, backend string) (string, error) {
	var out wire.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/health/"+backend, nil, &out); err != nil {
		return "", err
	}
	return out.Health, nil
}

// Healthz checks daemon liveness (readiness polls).
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz: http %d", resp.StatusCode)
	}
	return nil
}
