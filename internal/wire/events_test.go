package wire_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// flushRecorder is the ResponseWriter an event stream is driven through: it
// keeps what was written and counts the flushes.
type flushRecorder struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	frames  int // blank-line-terminated, the hello included
	flushes int
	changed chan struct{}
}

func (w *flushRecorder) Header() http.Header { return w.header }
func (w *flushRecorder) WriteHeader(int)     {}

func (w *flushRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames += bytes.Count(p, []byte("\n\n"))
	return w.body.Write(p)
}

func (w *flushRecorder) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
	select {
	case w.changed <- struct{}{}:
	default:
	}
}

// await blocks until cond holds of (frames, flushes), checked after each flush.
func (w *flushRecorder) await(t *testing.T, what string, cond func(frames, flushes int) bool) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		w.mu.Lock()
		frames, flushes := w.frames, w.flushes
		w.mu.Unlock()
		if cond(frames, flushes) {
			return
		}
		select {
		case <-w.changed:
		case <-deadline:
			t.Fatalf("waiting for %s: stuck at %d frames in %d flushes", what, frames, flushes)
		}
	}
}

// TestEventsFlushPaced: a busy stream is flushed once an interval with all the
// ring holds — complete, in order, nothing dropped — and an idle one at once.
func TestEventsFlushPaced(t *testing.T) {
	f := fleet.New(fleet.Config{Policy: fleet.FirstFit})
	if err := errors.Join(f.Add("m0", newStub(machines.AMD(), 1)), f.Add("m1", newStub(machines.Intel(), 2))); err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(f, wire.Config{})
	w := &flushRecorder{header: http.Header{}, changed: make(chan struct{}, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		ws.ServeHTTP(w, httptest.NewRequest("GET", "/v1/events", nil).WithContext(ctx))
	}()
	defer func() { cancel(); <-served }()
	w.await(t, "the hello", func(_, flushes int) bool { return flushes == 1 })

	gcc, _ := workloads.ByName("gcc")
	cycle := func() {
		adm, err := f.Place(ctx, gcc, 1)
		if err == nil {
			err = f.Release(ctx, adm.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Bursts under the 1024-slot ring and over the 64-event drain buffer. The
	// second flush after a burst started its drain after the burst ended, so
	// by then a drain that empties the ring has delivered the burst; one that
	// stops at a buffer's worth has not, falls a burst behind per burst, and
	// overflows the ring.
	const bursts, burst = 4, 500
	start := time.Now()
	for k := 1; k <= bursts; k++ {
		for i := 0; i < burst/2; i++ {
			cycle()
		}
		var from int
		w.await(t, "a burst to drain", func(frames, flushes int) bool {
			if from == 0 {
				from = flushes
			}
			return frames >= 1+k*burst || flushes >= from+2
		})
	}
	w.await(t, "every frame", func(frames, _ int) bool { return frames >= 1+bursts*burst })
	elapsed := time.Since(start)

	w.mu.Lock()
	frames := bytes.Split(bytes.TrimSuffix(w.body.Bytes(), []byte("\n\n")), []byte("\n\n"))
	flushes := w.flushes - 1 // the hello's
	w.mu.Unlock()
	if len(frames) != 1+bursts*burst {
		t.Fatalf("%d frames, want the hello and %d events", len(frames), bursts*burst)
	}
	var last uint64
	for i, frame := range frames[1:] {
		_, data, _ := bytes.Cut(frame, []byte("\ndata: "))
		var ev wire.Event
		if !wire.DecodeEvent(data, &ev) || ev.Type == "" || ev.Seq <= last {
			t.Fatalf("frame %d is %q, want an event with seq above %d", i+1, frame, last)
		}
		last = ev.Seq
	}
	if last != f.Seq() {
		t.Fatalf("last frame seq %d, fleet seq %d", last, f.Seq())
	}
	if limit := int(elapsed/wire.EventFlushEvery) + 2; flushes > limit {
		t.Errorf("%d events took %d flushes in %v, want at most %d (one per %v)", bursts*burst, flushes, elapsed, limit, wire.EventFlushEvery)
	}

	// Idle for longer than the interval: the next event does not wait for it,
	// nor for a second event.
	time.Sleep(2 * wire.EventFlushEvery)
	if _, err := f.Place(ctx, gcc, 1); err != nil {
		t.Fatal(err)
	}
	w.await(t, "an event on an idle stream", func(frames, _ int) bool { return frames == 2+bursts*burst })
}
