package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/nperr"
	"repro/internal/wire"
)

// flaky serves failures until succeedAfter attempts have been burned.
func flaky(t *testing.T, status int, body string, succeedAfter int32) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= succeedAfter {
			w.WriteHeader(status)
			w.Write([]byte(body))
			return
		}
		w.Write([]byte(`{"backends":null,"domains":null,"tenants":0}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestRetryOn5xx: transient 5xx responses are retried with backoff until
// success.
func TestRetryOn5xx(t *testing.T) {
	srv, attempts := flaky(t, http.StatusInternalServerError,
		`{"error":{"code":"internal","status":500,"message":"transient"}}`, 2)
	c := New(srv.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("stats after retries: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 failures + success)", got)
	}
}

// TestRetryExhaustion: a persistent 5xx surfaces the decoded wire error
// after retries run out.
func TestRetryExhaustion(t *testing.T) {
	srv, attempts := flaky(t, http.StatusServiceUnavailable,
		`{"error":{"code":"no_healthy_backend","status":503,"message":"all dead"}}`, 1000)
	c := New(srv.URL, WithRetries(2), WithBackoff(time.Millisecond))
	_, err := c.Stats(context.Background())
	if !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("exhausted retries: %v, want ErrNoHealthyBackend", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", got)
	}
}

// TestNoRetryOn4xx: rejections are terminal — retrying an unchanged
// request would just repeat the answer (and distort load-test rejection
// accounting).
func TestNoRetryOn4xx(t *testing.T) {
	srv, attempts := flaky(t, http.StatusConflict,
		`{"error":{"code":"fleet_full","status":409,"message":"full"}}`, 1000)
	c := New(srv.URL, WithRetries(5), WithBackoff(time.Millisecond))
	_, err := c.Place(context.Background(), "gcc", 4)
	if !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("rejection: %v, want ErrFleetFull", err)
	}
	var werr *Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeFleetFull {
		t.Fatalf("wire detail: %+v", werr)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want exactly 1 (no retry on 409)", got)
	}
}

// TestRetryOnConnectionError: a refused connection is retried; pointing at
// a dead port with a canceled deadline surfaces the transport error.
func TestRetryOnConnectionError(t *testing.T) {
	// Grab a port and close it so connections are refused.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := srv.URL
	srv.Close()

	c := New(addr, WithRetries(2), WithBackoff(time.Millisecond))
	start := time.Now()
	err := c.Release(context.Background(), 1)
	if err == nil {
		t.Fatal("release against a closed port should fail")
	}
	// 2 retries with 1ms/2ms backoff: the elapsed time shows the backoff
	// loop actually ran rather than bailing on the first dial failure.
	if time.Since(start) < 3*time.Millisecond {
		t.Fatalf("returned too fast for 2 backoff rounds: %v (%v)", time.Since(start), err)
	}
}

// TestRetryHonorsContext: cancellation cuts the backoff loop short.
func TestRetryHonorsContext(t *testing.T) {
	srv, _ := flaky(t, http.StatusInternalServerError,
		`{"error":{"code":"internal","status":500,"message":"transient"}}`, 1000)
	c := New(srv.URL, WithRetries(100), WithBackoff(50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Stats(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("context cancellation ignored: took %v", time.Since(start))
	}
}

// TestEitherSpellingDecodesAlike: Place, Release and the event stream read
// the daemon's own spelling (through the recognisers) and any other valid JSON
// (through encoding/json) to the same values.
func TestEitherSpellingDecodesAlike(t *testing.T) {
	type spelling struct{ place, release, events string }
	canonical := spelling{
		place:   `{"id":7,"backend":"m0","assignment":{"id":3,"workload":"gcc","vcpus":16,"class":2,"nodes":[1,4],"base_perf":1.25,"probe_perf":0,"predicted_perf":1e+06}}`,
		release: `{"id":7}`,
		events: ": numaplaced event stream\n\n" +
			"event: place\ndata: {\"seq\":1,\"type\":\"place\",\"id\":7,\"backend\":\"m0\",\"workload\":\"gcc\",\"vcpus\":16}\n\n" +
			"event: dropped\ndata: {\"dropped\":3}\n\n" +
			"event: health\ndata: {\"seq\":5,\"type\":\"health\",\"id\":-1,\"backend\":\"m0\",\"from_health\":\"healthy\",\"to_health\":\"dead\"}\n\n",
	}
	loose := spelling{
		place: "{\n  \"assignment\": {\n    \"predicted_perf\": 1000000,\n    \"nodes\": [ 1,\n 4 ],\n    \"pinning\": [[0, 1]],\n" +
			"    \"class\": 2, \"vcpus\": 16, \"workload\": \"g\\u0063c\", \"id\": 3, \"base_perf\": 1.25, \"probe_perf\": 0.0\n  },\n" +
			"  \"backend\": \"m\\u0030\",\n  \"trace\": null,\n  \"id\": 7\n}\n",
		release: "{ \"released\": true, \"id\": 7 }",
		events: ": numaplaced event stream\r\n\r\n" +
			"event: place\r\ndata: { \"vcpus\": 16, \"workload\": \"g\\u0063c\", \"backend\": \"m\\u0030\", \"id\": 7, \"extra\": {}, \"type\": \"place\", \"seq\": 1 }\r\n\r\n" +
			": keep-alive\n\n" +
			"event: dropped\ndata: { \"dropped\" : 3 }\n\n" +
			"event: health\ndata: {\"to_health\":\"dead\",\"from_health\":\"h\\u0065althy\",\n" +
			"data: \"backend\":\"m0\",\"id\":-1,\"type\":\"health\",\"seq\":5}\n\n",
	}
	type outcome struct {
		Place  wire.PlaceResponse
		Events []Event
	}
	run := func(sp spelling) outcome {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if got, want := string(body), `{"workload":"gcc","vcpus":16}`; got != want ||
				r.ContentLength != int64(len(want)) || r.Header.Get("Content-Type") != "application/json" {
				t.Errorf("place request %q (length %d, %q), want %q", got, r.ContentLength, r.Header.Get("Content-Type"), want)
			}
			io.WriteString(w, sp.place)
		})
		mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
			if body, _ := io.ReadAll(r.Body); string(body) != `{"id":7}` {
				t.Errorf("release request %q", body)
			}
			io.WriteString(w, sp.release)
		})
		mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, sp.events)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		c := New(srv.URL, WithRetries(0))
		ctx := context.Background()
		var out outcome
		pr, err := c.Place(ctx, "gcc", 16)
		if err != nil {
			t.Fatal(err)
		}
		out.Place = *pr
		if err := c.Release(ctx, pr.ID); err != nil {
			t.Fatal(err)
		}
		es, err := c.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer es.Close()
		for {
			ev, err := es.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out.Events = append(out.Events, ev)
		}
	}
	want := outcome{
		Place: wire.PlaceResponse{ID: 7, Backend: "m0", Assignment: wire.Assignment{ID: 3, Workload: "gcc", VCPUs: 16,
			Class: 2, Nodes: []int{1, 4}, BasePerf: 1.25, PredictedPerf: 1e6}},
		Events: []Event{
			{Seq: 1, Type: "place", ID: 7, Backend: "m0", Workload: "gcc", VCPUs: 16},
			{Type: "dropped", Dropped: 3},
			{Seq: 5, Type: "health", ID: -1, Backend: "m0", FromHealth: "healthy", ToHealth: "dead"},
		},
	}
	if got := run(canonical); !reflect.DeepEqual(got, want) {
		t.Errorf("canonical spelling decoded to\n%+v\nwant\n%+v", got, want)
	}
	if got := run(loose); !reflect.DeepEqual(got, want) {
		t.Errorf("loose spelling decoded to\n%+v\nwant\n%+v", got, want)
	}
}

// TestEventStreamBoundsALine: a peer that never ends its line fails the
// stream at the bound instead of growing the line without limit.
func TestEventStreamBoundsALine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "data: ")
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	es, err := New(srv.URL).Events(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	_, err = es.Next()
	if !errors.Is(err, bufio.ErrBufferFull) {
		t.Fatalf("endless line: %v, want a wrapped bufio.ErrBufferFull", err)
	}
	if len(es.long) > maxLine+4096 {
		t.Fatalf("stream buffered %d bytes of one line, bound is %d", len(es.long), maxLine)
	}
}

// countingTransport counts the requests it carries to the next transport.
type countingTransport struct {
	n    atomic.Int32
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// TestWithHTTPClientCarriesEveryRequest: the *http.Client WithHTTPClient
// substitutes is the one every request travels through, retries included.
func TestWithHTTPClientCarriesEveryRequest(t *testing.T) {
	srv, attempts := flaky(t, http.StatusBadGateway,
		`{"error":{"code":"internal","status":502,"message":"transient"}}`, 1)
	tr := &countingTransport{next: srv.Client().Transport}
	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: tr}), WithRetries(1), WithBackoff(time.Millisecond))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("stats through the substituted client: %v", err)
	}
	if got, want := tr.n.Load(), attempts.Load(); got != 2 || got != want {
		t.Fatalf("the substituted client carried %d requests, the server saw %d, want 2 each", got, want)
	}
}

// TestHealthz: a 200 on GET /v1/healthz is healthy; any other status, or no
// daemon at all, is an error.
func TestHealthz(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/healthz" {
			t.Errorf("healthz sent %s %s, want GET /v1/healthz", r.Method, r.URL.Path)
		}
		w.WriteHeader(int(status.Load()))
		w.Write([]byte("ok\n"))
	}))
	c := New(srv.URL + "/")
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz against a healthy daemon: %v", err)
	}
	status.Store(http.StatusServiceUnavailable)
	if err := c.Healthz(context.Background()); err == nil || err.Error() != "client: healthz: http 503" {
		t.Fatalf("healthz against a 503: %v, want client: healthz: http 503", err)
	}
	srv.Close()
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("healthz against a closed port succeeded")
	}
}

// TestErrorMessage: a daemon rejection reads as its wire code, HTTP status
// and message.
func TestErrorMessage(t *testing.T) {
	srv, _ := flaky(t, http.StatusConflict,
		`{"error":{"code":"fleet_full","status":409,"message":"no machine fits 4 vCPUs"}}`, 1000)
	_, err := New(srv.URL, WithRetries(0)).Place(context.Background(), "gcc", 4)
	var werr *Error
	if !errors.As(err, &werr) {
		t.Fatalf("place against a full fleet: %v, want an *Error", err)
	}
	if got, want := werr.Error(), "numaplaced: fleet_full (http 409): no machine fits 4 vCPUs"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// cutTransport answers every request 200 with body.
type cutTransport struct{ body func() io.Reader }

func (t cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(t.body()), Request: r}, nil
}

// TestPlaceResponseCutShort: a place response the recogniser declines goes
// to encoding/json as the bytes read followed by the read's own end — the
// read's error when it failed, io.EOF when it ended cleanly, so a truncated
// body reads as io.ErrUnexpectedEOF.
func TestPlaceResponseCutShort(t *testing.T) {
	const partial = `{"id":7,"backend":"m0","assignment":{"id":3`
	errCut := errors.New("connection reset mid-body")
	for _, tc := range []struct {
		name string
		body func() io.Reader
		want error
	}{
		{"ends cleanly", func() io.Reader { return strings.NewReader(partial) }, io.ErrUnexpectedEOF},
		{"read fails", func() io.Reader { return io.MultiReader(strings.NewReader(partial), iotest.ErrReader(errCut)) }, errCut},
	} {
		c := New("http://daemon", WithHTTPClient(&http.Client{Transport: cutTransport{tc.body}}), WithRetries(0))
		if _, err := c.Place(context.Background(), "gcc", 16); !errors.Is(err, tc.want) {
			t.Errorf("%s: place = %v, want %v", tc.name, err, tc.want)
		}
	}
}
