package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/machines"
)

// eventFleet builds a two-stub fleet for event tests.
func eventFleet(t *testing.T) (*Fleet, *stubBackend, *stubBackend) {
	t.Helper()
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.AMD(), 1), newStub(machines.Intel(), 2)
	if err := f.Add("m0", a); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("m1", b); err != nil {
		t.Fatal(err)
	}
	return f, a, b
}

func drainAll(s *Subscription) ([]Event, uint64) {
	var out []Event
	var dropped uint64
	buf := make([]Event, 8)
	for {
		n, d := s.Drain(buf)
		dropped += d
		if n == 0 {
			return out, dropped
		}
		out = append(out, buf[:n]...)
	}
}

// TestEventStream checks that the serving-plane operations publish the
// documented event sequence with a totally ordered Seq.
func TestEventStream(t *testing.T) {
	ctx := context.Background()
	f, _, _ := eventFleet(t)
	sub := f.Subscribe(64)
	defer sub.Close()

	w := testWorkload(t, "gcc")
	a1, err := f.Place(ctx, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := f.Place(ctx, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(ctx, a1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fail(ctx, "m0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Revive(ctx, "m0"); err != nil {
		t.Fatal(err)
	}

	evs, dropped := drainAll(sub)
	if dropped != 0 {
		t.Fatalf("dropped %d events with a roomy ring", dropped)
	}
	// place, place, release, health(m0 dead), move (failover rehomes a2),
	// failover summary, health(m0 healthy), revive.
	wantTypes := []EventType{EvPlace, EvPlace, EvRelease, EvHealth, EvMove, EvFailover, EvHealth, EvRevive}
	if len(evs) != len(wantTypes) {
		t.Fatalf("got %d events %v, want %d", len(evs), evs, len(wantTypes))
	}
	for i, ev := range evs {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d: type %s, want %s (%+v)", i, ev.Type, wantTypes[i], ev)
		}
		if i > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Errorf("event %d: seq %d after %d, want contiguous", i, ev.Seq, evs[i-1].Seq)
		}
	}
	if evs[0].ID != a1.ID || evs[0].Backend != "m0" || evs[0].Workload != "gcc" || evs[0].VCPUs != 16 {
		t.Errorf("place event fields: %+v", evs[0])
	}
	if evs[3].FromHealth != Healthy || evs[3].ToHealth != Dead {
		t.Errorf("death transition: %+v", evs[3])
	}
	if evs[4].ID != a2.ID || evs[4].Backend != "m0" || evs[4].Dest != "m1" || evs[4].Seconds <= 0 {
		t.Errorf("failover move: %+v", evs[4])
	}
	if evs[5].Moves != 1 || evs[5].Stranded != 0 || evs[5].Backend != "m0" {
		t.Errorf("failover summary: %+v", evs[5])
	}
	// a2 was failed over off the dead m0, whose engine-side record could
	// not be released; Revive fences that one orphan.
	if evs[7].Type != EvRevive || evs[7].Fenced != 1 {
		t.Errorf("revive event: %+v", evs[7])
	}
}

// TestEventSlowSubscriberDrop checks the backpressure policy: a
// subscriber that never drains loses its oldest events (counted), keeps a
// contiguous most-recent tail, and a fast subscriber on the same fleet is
// unaffected.
func TestEventSlowSubscriberDrop(t *testing.T) {
	ctx := context.Background()
	f, _, _ := eventFleet(t)
	fast := f.Subscribe(256)
	defer fast.Close()
	slow := f.Subscribe(4)
	defer slow.Close()

	w := testWorkload(t, "gcc")
	const rounds = 20 // 40 events: place+release per round
	for i := 0; i < rounds; i++ {
		a, err := f.Place(ctx, w, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
	}

	fastEvs, fastDropped := drainAll(fast)
	if fastDropped != 0 || len(fastEvs) != 2*rounds {
		t.Fatalf("fast subscriber: %d events, %d dropped, want %d and 0",
			len(fastEvs), fastDropped, 2*rounds)
	}
	slowEvs, slowDropped := drainAll(slow)
	if len(slowEvs) != 4 {
		t.Fatalf("slow subscriber kept %d events, want its full ring of 4", len(slowEvs))
	}
	if want := uint64(2*rounds - 4); slowDropped != want {
		t.Fatalf("slow subscriber dropped %d, want %d", slowDropped, want)
	}
	if slowEvs[3].Seq != fastEvs[len(fastEvs)-1].Seq {
		t.Errorf("slow ring should hold the most recent events: tail seq %d vs %d",
			slowEvs[3].Seq, fastEvs[len(fastEvs)-1].Seq)
	}
	for i := 1; i < len(slowEvs); i++ {
		if slowEvs[i].Seq != slowEvs[i-1].Seq+1 {
			t.Errorf("drops must come off the head, not punch holes: seq %d after %d",
				slowEvs[i].Seq, slowEvs[i-1].Seq)
		}
	}
	if d := slow.Dropped(); d != uint64(2*rounds-4) {
		t.Errorf("Dropped() = %d, want %d", d, 2*rounds-4)
	}
}

// TestEventPublishAllocFree pins the hot-path guarantee: publishing with
// an active (never-draining, steadily overwriting) subscriber allocates
// nothing.
func TestEventPublishAllocFree(t *testing.T) {
	f, _, _ := eventFleet(t)
	sub := f.Subscribe(8)
	defer sub.Close()
	ev := Event{Type: EvPlace, ID: 7, Backend: "m0", Workload: "gcc", VCPUs: 16}
	// Warm the ring into its steady overwrite state.
	for i := 0; i < 16; i++ {
		f.mu.Lock()
		f.publish(ev)
		f.mu.Unlock()
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.mu.Lock()
		f.publish(ev)
		f.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("publish allocates %.1f times per event with an active subscriber, want 0", allocs)
	}
}

// TestEventAdmitHotPathAllocs checks the end-to-end discipline on the
// admission path itself: Place+Release on a subscribed fleet allocates no
// more than on an unsubscribed one.
func TestEventAdmitHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the routing scratch is pooled; sync.Pool is lossy under the race detector")
	}
	ctx := context.Background()
	w := testWorkload(t, "gcc")
	measure := func(f *Fleet) float64 {
		// Warm: stabilize the tenant map and any lazy state.
		for i := 0; i < 64; i++ {
			a, err := f.Place(ctx, w, 16)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Release(ctx, a.ID); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(300, func() {
			a, _ := f.Place(ctx, w, 16)
			f.Release(ctx, a.ID)
		})
	}
	bare, _, _ := eventFleet(t)
	base := measure(bare)

	subbed, _, _ := eventFleet(t)
	sub := subbed.Subscribe(8) // never drained: steady overwrite state
	defer sub.Close()
	withSub := measure(subbed)
	if withSub > base {
		t.Fatalf("active subscription adds allocations to the admit path: %.1f vs %.1f per place+release",
			withSub, base)
	}
}

// TestEventStressRace drives concurrent Place/Release/Fail/Revive against
// multiple subscribers under the race detector and checks conservation:
// every subscriber's received+dropped equals the published total, and
// drained sequences are strictly increasing.
func TestEventStressRace(t *testing.T) {
	ctx := context.Background()
	f, _, _ := eventFleet(t)
	subs := []*Subscription{f.Subscribe(8), f.Subscribe(64), f.Subscribe(1024)}
	received := make([][]Event, len(subs))
	droppedTotal := make([]uint64, len(subs))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Drainers: one per subscription, spinning.
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s *Subscription) {
			defer wg.Done()
			buf := make([]Event, 16)
			for {
				n, d := s.Drain(buf)
				received[i] = append(received[i], buf[:n]...)
				droppedTotal[i] += d
				if n == 0 {
					select {
					case <-stop:
						// Final sweep after publishers are done.
						for {
							n, d := s.Drain(buf)
							received[i] = append(received[i], buf[:n]...)
							droppedTotal[i] += d
							if n == 0 {
								return
							}
						}
					default:
						runtime.Gosched()
					}
				}
			}
		}(i, s)
	}

	// Publishers: churn admissions on both machines, plus a fail/revive
	// flapper.
	var pubWG sync.WaitGroup
	w := testWorkload(t, "gcc")
	for g := 0; g < 4; g++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for i := 0; i < 100; i++ {
				a, err := f.Place(ctx, w, 16)
				if err != nil {
					continue // machine flapped dead mid-place: fine
				}
				f.Release(ctx, a.ID)
			}
		}()
	}
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 0; i < 20; i++ {
			if _, err := f.Fail(ctx, "m1"); err != nil {
				continue
			}
			if _, err := f.Revive(ctx, "m1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	pubWG.Wait()
	close(stop)
	wg.Wait()

	f.mu.Lock()
	published := f.eventSeq
	f.mu.Unlock()
	if published == 0 {
		t.Fatal("no events published")
	}
	for i := range subs {
		if got := uint64(len(received[i])) + droppedTotal[i]; got != published {
			t.Errorf("sub %d: received %d + dropped %d != published %d",
				i, len(received[i]), droppedTotal[i], published)
		}
		for j := 1; j < len(received[i]); j++ {
			if received[i][j].Seq <= received[i][j-1].Seq {
				t.Errorf("sub %d: seq not strictly increasing at %d: %d then %d",
					i, j, received[i][j-1].Seq, received[i][j].Seq)
				break
			}
		}
	}
}

// TestEventOrderDeterministic replays the same simulated scenario under
// GOMAXPROCS 1 and 4 and requires the event stream — formatted to bytes —
// to be identical: everything publishes under the fleet lock in simulation
// order, so parallelism must not reorder or reword anything.
func TestEventOrderDeterministic(t *testing.T) {
	run := func() string {
		ctx := context.Background()
		f, _, _ := eventFleet(t)
		sub := f.Subscribe(4096)
		defer sub.Close()
		w := testWorkload(t, "gcc")

		var sim des.Sim
		var ids []int
		for i := 0; i < 6; i++ {
			i := i
			sim.At(float64(10*i+10), func() {
				if a, err := f.Place(ctx, w, 16); err == nil {
					ids = append(ids, a.ID)
				}
			})
		}
		sim.At(35, func() {
			if len(ids) > 0 {
				f.Release(ctx, ids[0])
			}
		})
		sim.At(45, func() { f.Fail(ctx, "m0") })
		sim.At(55, func() { f.Rebalance(ctx, 1e9) })
		sim.At(65, func() { f.Revive(ctx, "m0") })
		sim.Run()

		evs, dropped := drainAll(sub)
		out := fmt.Sprintf("dropped=%d\n", dropped)
		for _, ev := range evs {
			out += fmt.Sprintf("%d %s id=%d b=%s d=%s w=%s v=%d h=%s>%s m=%d i=%d e=%d s=%d f=%d sec=%.3f\n",
				ev.Seq, ev.Type, ev.ID, ev.Backend, ev.Dest, ev.Workload, ev.VCPUs,
				ev.FromHealth, ev.ToHealth, ev.Moves, ev.Intra, ev.Examined, ev.Stranded,
				ev.Fenced, ev.Seconds)
		}
		return out
	}

	old := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	runtime.GOMAXPROCS(old)
	if one != four {
		t.Fatalf("event stream differs between GOMAXPROCS 1 and 4:\n--- 1:\n%s--- 4:\n%s", one, four)
	}
	if one == "" {
		t.Fatal("empty event stream")
	}
}

// BenchmarkEventPublish measures the publish hot path with one active,
// never-draining subscriber (the steady-state worst case: every publish
// overwrites). TestEventPublishAllocFree holds it to 0 allocs — the event
// hook must cost the admission path nothing but a ring copy.
func BenchmarkEventPublish(b *testing.B) {
	f := New(Config{})
	sub := f.Subscribe(64)
	defer sub.Close()
	ev := Event{Type: EvPlace, ID: 1, Backend: "m0", Workload: "gcc", VCPUs: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mu.Lock()
		f.publish(ev)
		f.mu.Unlock()
	}
}
