// The numaplaced HTTP server: DESIGN.md's "route | body → response | fleet
// call" table, as code.
//
// Server.routes is that table. A route with a JSON body is one verb
// registration — the request DTO as the type parameter, a closure making the
// fleet call — and a route without one is one query registration; both end in
// reply, which owns error classification and encoding. A request's body and
// its response travel through one pooled buffer; /v1/events frames are encoded
// with the zero-alloc appenders in wire.go.
package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/nperr"
	"repro/internal/workloads"
)

// Config tunes the server; the zero value is serviceable.
type Config struct {
	// EventBuffer is the per-/v1/events-subscriber ring size (default
	// 1024). A subscriber that falls further behind than this loses its
	// oldest events and is told so via a synthetic "dropped" frame.
	EventBuffer int
	// LogHead reports the daemon's durability position for
	// GET /v1/log/head. Nil means the daemon runs without persistence;
	// the endpoint then reports persistent=false with the fleet's
	// in-memory sequence.
	LogHead func() LogHead
	// Snapshot forces a checkpoint for POST /v1/snapshot, returning the
	// sequence the snapshot covers. Nil (no persistence) maps to
	// log_closed.
	Snapshot func() (uint64, error)
}

func (c Config) eventBuffer() int {
	if c.EventBuffer <= 0 {
		return 1024
	}
	return c.EventBuffer
}

// maxBody bounds request bodies; every request in the protocol is tiny.
const maxBody = 1 << 20

// eventFlushEvery is the least time between two flushes of one /v1/events
// stream: a busy stream costs one write(2) an interval, not one an event. An
// event on a stream that has been quiet for longer is flushed at once.
const eventFlushEvery = time.Millisecond

// jsonContentType is every JSON response's Content-Type value, shared:
// assigned as the header's value slice, it saves Header.Set's allocation.
var jsonContentType = []string{"application/json"}

// Server serves the numaplaced wire protocol over a fleet.
type Server struct {
	f   *fleet.Fleet
	cfg Config
	mux *http.ServeMux

	// stop ends the open /v1/events streams so http.Server.Shutdown can
	// complete (Shutdown waits for active handlers; an SSE stream never
	// returns on its own).
	stop     chan struct{}
	stopOnce sync.Once

	// bufPool recycles per-request scratch buffers (body read + response
	// encode).
	bufPool sync.Pool
}

// NewServer wires the protocol handlers over f.
func NewServer(f *fleet.Fleet, cfg Config) *Server {
	s := &Server{
		f:    f,
		cfg:  cfg,
		mux:  http.NewServeMux(),
		stop: make(chan struct{}),
	}
	s.bufPool.New = func() any {
		b := make([]byte, 0, 4096)
		return &b
	}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, rt.handler)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stop ends all open event streams. Call it before http.Server.Shutdown —
// Shutdown waits for handlers, and SSE handlers only exit on client
// disconnect or Stop.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// route is one row of the protocol: a "METHOD /path" pattern as
// http.ServeMux takes it, and what serves it.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the whole protocol (TestRoutesDocumented holds DESIGN.md's Routes
// table to it).
func (s *Server) routes() []route {
	f := s.f
	return []route{
		{"POST /v1/place", verb(s, func(ctx context.Context, req *PlaceRequest) (any, *fleet.Report, error) {
			wl, ok := workloads.ByName(req.Workload)
			if !ok {
				//numalint:ignore sentinelwrap badRequest carries its code (CodeBadRequest); CodeFor classification is bypassed
				return nil, nil, badRequest{fmt.Errorf("unknown workload %q", req.Workload)}
			}
			adm, err := f.Place(ctx, wl, req.VCPUs)
			return &adm, nil, err
		})},
		{"POST /v1/release", verb(s, func(ctx context.Context, req *ReleaseRequest) (any, *fleet.Report, error) {
			return ReleaseResponse{ID: req.ID}, nil, f.Release(ctx, req.ID)
		})},
		{"POST /v1/rebalance", verb(s, func(ctx context.Context, req *RebalanceRequest) (any, *fleet.Report, error) {
			return pass(f.Rebalance(ctx, req.BudgetSeconds))
		})},
		{"POST /v1/drain", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			return pass(f.Drain(ctx, req.Backend))
		})},
		{"POST /v1/resume", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			return req, nil, f.Resume(req.Backend)
		})},
		{"POST /v1/heartbeat", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			h, err := f.Heartbeat(req.Backend)
			return HealthResponse{Backend: req.Backend, Health: h.String()}, nil, err
		})},
		{"POST /v1/missprobe", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			h, rep, err := f.MissProbe(ctx, req.Backend)
			return HealthResponse{Backend: req.Backend, Health: h.String(), Report: ReportFrom(rep)}, rep, err
		})},
		{"POST /v1/fail", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			return pass(f.Fail(ctx, req.Backend))
		})},
		{"POST /v1/failover", verb(s, func(ctx context.Context, req *FailoverRequest) (any, *fleet.Report, error) {
			return pass(f.Failover(ctx, req.Backend, req.BudgetSeconds))
		})},
		{"POST /v1/revive", verb(s, func(ctx context.Context, req *BackendRequest) (any, *fleet.Report, error) {
			fenced, err := f.Revive(ctx, req.Backend)
			return ReviveResponse{Backend: req.Backend, Fenced: fenced}, nil, err
		})},
		// A forced checkpoint bounds the log tail a future restart must
		// replay (operators call it before planned maintenance).
		{"POST /v1/snapshot", query(s, func(*http.Request) (any, error) {
			if s.cfg.Snapshot == nil {
				return nil, fmt.Errorf("wire: snapshot: persistence not enabled: %w", nperr.ErrLogClosed)
			}
			seq, err := s.cfg.Snapshot()
			return SnapshotResponse{Seq: seq}, err
		})},
		{"GET /v1/stats", query(s, func(*http.Request) (any, error) {
			return StatsFrom(f.Stats()), nil
		})},
		{"GET /v1/assignments", query(s, func(*http.Request) (any, error) {
			return f.Assignments(), nil
		})},
		// The endpoint exists even on an unpersisted daemon so monitors can
		// probe one URL and branch on the persistent flag instead of
		// special-casing a 404.
		{"GET /v1/log/head", query(s, func(*http.Request) (any, error) {
			if s.cfg.LogHead == nil {
				return LogHead{Seq: f.Seq()}, nil
			}
			return s.cfg.LogHead(), nil
		})},
		{"GET /v1/health/{backend}", query(s, func(r *http.Request) (any, error) {
			name := r.PathValue("backend")
			h, ok := f.HealthOf(name)
			if !ok {
				return nil, fmt.Errorf("wire: health of %q: %w", name, nperr.ErrUnknownBackend)
			}
			return HealthResponse{Backend: name, Health: h.String()}, nil
		})},
		{"GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, "ok\n")
		}},
		{"GET /v1/events", s.handleEvents},
	}
}

// pass adapts a fleet pass's return: its report is the response when the pass
// succeeds and rides the error body when it fails partway.
func pass(rep *fleet.Report, err error) (any, *fleet.Report, error) {
	return ReportFrom(rep), rep, err
}

// badRequest marks a request the server could not read, decode or resolve. No
// nperr sentinel stands behind it, so reply gives it bad_request itself.
type badRequest struct{ error }

// verb serves a route whose request is the JSON of a Req: the body is read
// into the request's pooled buffer and decoded, call makes the fleet call —
// returning the response, or the error with the partial report that rides it
// — and the reply is encoded into the same buffer.
func verb[Req any](s *Server, call func(context.Context, *Req) (any, *fleet.Report, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := s.bufPool.Get().(*[]byte)
		defer s.bufPool.Put(buf)
		var (
			req     Req
			resp    any
			partial *fleet.Report
		)
		err := readJSON(w, r, buf, &req)
		if err == nil {
			resp, partial, err = call(r.Context(), &req)
		}
		reply(w, buf, resp, partial, err)
	}
}

// query serves a route without a request body.
func query(s *Server, call func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := s.bufPool.Get().(*[]byte)
		defer s.bufPool.Put(buf)
		resp, err := call(r)
		reply(w, buf, resp, nil, err)
	}
}

// readJSON drains the request body into *buf, which keeps what it grew to,
// and decodes it into v — the two hot requests by their recognisers when the
// body is plain, everything else by encoding/json; either failure is a
// bad_request.
func readJSON(w http.ResponseWriter, r *http.Request, buf *[]byte, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return badRequest{fmt.Errorf("reading body: %w", err)}
		}
	}
	*buf = b
	switch v := v.(type) {
	case *PlaceRequest:
		if decodePlaceRequest(b, v) {
			return nil
		}
	case *ReleaseRequest:
		if decodeReleaseRequest(b, v) {
			return nil
		}
	}
	if err := json.Unmarshal(b, v); err != nil {
		return badRequest{fmt.Errorf("decoding body: %w", err)}
	}
	return nil
}

// reply writes a route's outcome: resp as JSON with 200, or err classified
// through the sentinel table as the standard error body, with partial — the
// report of a pass that failed partway — riding along. Admissions are encoded
// by AppendPlace, the one encoder an admission has, and releases by
// AppendRelease; they cost no allocation. Everything else is cold and goes
// through encoding/json.
func reply(w http.ResponseWriter, buf *[]byte, resp any, partial *fleet.Report, err error) {
	status := http.StatusOK
	if err != nil {
		code, st := CodeFor(err)
		if errors.As(err, new(badRequest)) {
			code, st = CodeBadRequest, StatusFor(CodeBadRequest)
		}
		status = st
		resp = ErrorBody{Error: ErrorDetail{
			Code: code, Status: status, Message: err.Error(), Report: ReportFrom(partial),
		}}
	}
	var out []byte
	switch v := resp.(type) {
	case *fleet.Admission:
		out = AppendPlace((*buf)[:0], v)
		*buf = out
	case ReleaseResponse:
		out = AppendRelease((*buf)[:0], v.ID)
		*buf = out
	case []fleet.Admission:
		out = append((*buf)[:0], `{"assignments":[`...)
		for i := range v {
			if i > 0 {
				out = append(out, ',')
			}
			out = AppendPlace(out, &v[i])
		}
		out = append(out, `]}`...)
		*buf = out
	default:
		var merr error
		if out, merr = json.Marshal(v); merr != nil {
			http.Error(w, `{"error":{"code":"internal","status":500,"message":"encoding response"}}`,
				http.StatusInternalServerError)
			return
		}
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(out)
}

// handleEvents streams the fleet event feed as Server-Sent Events. Each
// stream owns a bounded fleet subscription; when the client reads slower
// than the fleet publishes, the oldest events are dropped and announced
// with a synthetic "dropped" frame (the drop happens subscription-side —
// the fleet's admission path is never throttled by a slow watcher). The
// stream is flushed at most once per eventFlushEvery, with everything the ring
// holds by then.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		//numalint:ignore sentinelwrap unclassified on purpose (internal): a non-Flusher writer is a server wiring bug
		reply(w, new([]byte), nil, nil, errors.New("wire: response writer cannot stream"))
		return
	}
	sub := s.f.Subscribe(s.cfg.eventBuffer())
	defer sub.Close()

	ctx := r.Context()
	// End the stream on server Stop as well as client disconnect.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.stop:
			sub.Close() // wakes the Wait below
		case <-done:
		}
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, ": numaplaced event stream\n\n"); err != nil {
		return
	}
	flusher.Flush()

	events := make([]fleet.Record, 64)
	out := make([]byte, 0, 8192)
	pace := time.NewTimer(eventFlushEvery)
	defer pace.Stop()
	var flushed time.Time // the hello does not count: the first event goes out at once
	for {
		if err := sub.Wait(ctx); err != nil {
			return
		}
		if wait := eventFlushEvery - time.Since(flushed); wait > 0 {
			pace.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-pace.C:
			}
		}
		// Until the ring is empty, not one buffer's worth: at one buffer an
		// interval a busy stream falls behind its ring.
		out = out[:0]
		for n := len(events); n == len(events); {
			var dropped uint64
			n, dropped = sub.Drain(events)
			if dropped > 0 {
				out = AppendDroppedSSE(out, dropped)
			}
			for i := 0; i < n; i++ {
				out = AppendSSE(out, &events[i])
			}
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		flusher.Flush()
		flushed = time.Now()
	}
}
