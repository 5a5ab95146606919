package fleet

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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

func drainAll(s *Subscription) ([]Record, uint64) {
	var out []Record
	var dropped uint64
	buf := make([]Record, 8)
	for {
		n, d := s.Drain(buf)
		dropped += d
		if n == 0 {
			return out, dropped
		}
		out = append(out, buf[:n]...)
	}
}

// TestEventStream pins one example of the feed: the types a short scenario
// delivers, their fields, and that each frame is the log's record of its Seq
// (TestFeedIsTheLog checks the whole of that over the randomized trace).
func TestEventStream(t *testing.T) {
	ctx := context.Background()
	f, _, _ := eventFleet(t)
	p := &memPersister{}
	f.SetPersister(p)
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
	wantTypes := []RecordType{RecPlace, RecPlace, RecRelease, RecHealth, RecMove, RecFailover, RecHealth, RecRevive}
	if len(evs) != len(wantTypes) {
		t.Fatalf("got %d events %v, want %d", len(evs), evs, len(wantTypes))
	}
	recs := p.records()
	for i, ev := range evs {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d: type %s, want %s (%+v)", i, ev.Type, wantTypes[i], ev)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Errorf("event %d: seq %d after %d, want strictly increasing", i, ev.Seq, evs[i-1].Seq)
		}
		if ev.Seq == 0 || ev.Seq > uint64(len(recs)) || recs[ev.Seq-1] != ev {
			t.Errorf("event %d (%+v) is not the log's record %d", i, ev, ev.Seq)
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
	if evs[7].Type != RecRevive || evs[7].Fenced != 1 {
		t.Errorf("revive event: %+v", evs[7])
	}
}

// TestFeedIsTheLog is the conservation suite of the one commit stream. Over
// the 800-operation trace under each policy, with a persister and a subscriber
// attached from the start: the records' Seq are contiguous from 1 and end at
// Fleet.Seq; what the subscriber drains is the appended records whose type has
// an event name — same order, same Seq, field for field; and the name table
// names exactly the nine types a watcher is told about.
func TestFeedIsTheLog(t *testing.T) {
	named := map[RecordType]string{RecPlace: "place", RecRelease: "release", RecMove: "move",
		RecHealth: "health", RecFailover: "failover", RecRebalance: "rebalance", RecDrainPass: "drain",
		RecRevive: "revive", RecResume: "resume"}
	for ty := RecordType(0); int(ty) <= len(recordNames); ty++ { // and one past the table
		if got := ty.EventName(); got != named[ty] {
			t.Errorf("%s is %q on the feed, want %q", ty, got, named[ty])
		}
	}
	for _, policy := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			var tr *occupancyTrace
			var sub *Subscription
			var feed []Record
			drain := func() {
				evs, dropped := drainAll(sub)
				if dropped != 0 {
					t.Fatalf("dropped %d records with a roomy ring", dropped)
				}
				feed = append(feed, evs...)
			}
			runOccupancyTrace(t, policy,
				func(run *occupancyTrace, op int) {
					if op == 0 {
						tr, sub = run, run.f.Subscribe(1024)
					}
				},
				func(*occupancyTrace, int, string, string) { drain() })
			drain()
			sub.Close()

			recs := tr.p.records()
			var want []Record
			counts := map[RecordType]int{}
			for i, r := range recs {
				if r.Seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d: not contiguous from 1", i, r.Seq)
				}
				counts[r.Type]++
				if r.Type.EventName() != "" {
					want = append(want, r)
				}
			}
			if got := tr.f.Seq(); got != uint64(len(recs)) {
				t.Fatalf("Seq() = %d after %d records", got, len(recs))
			}
			// Every type but the intra-machine pair, which a stub never moves.
			for ty := RecPlace; ty <= RecRevive; ty++ {
				if counts[ty] == 0 && ty != RecIntraMove && ty != RecIntraPass {
					t.Errorf("the trace committed no %s record", ty)
				}
			}
			if len(feed) != len(want) {
				t.Fatalf("the feed delivered %d records, the log holds %d with an event name", len(feed), len(want))
			}
			for i := range want {
				if feed[i] != want[i] {
					t.Fatalf("frame %d is %+v, the log's %+v", i, feed[i], want[i])
				}
			}
		})
	}
}

// TestClosedSubscriptionIsLetGo: Close leaves no pointer to the subscription
// (and its ring) in the slots of f.subs past its length.
func TestClosedSubscriptionIsLetGo(t *testing.T) {
	f, _, _ := eventFleet(t)
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		subs = append(subs, f.Subscribe(4))
	}
	for _, s := range subs {
		s.Close()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.subs[:cap(f.subs)] {
		if s != nil {
			t.Errorf("slot %d of f.subs still holds a closed subscription", i)
		}
	}
}

// TestEventSlowSubscriberDrop checks the backpressure policy: a
// subscriber that never drains loses its oldest events (counted), keeps the
// most recent tail whole, and a fast subscriber on the same fleet is
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
	for i, ev := range fastEvs {
		if i > 0 && ev.Seq <= fastEvs[i-1].Seq {
			t.Errorf("fast subscriber: seq %d after %d, want strictly increasing", ev.Seq, fastEvs[i-1].Seq)
		}
	}
	if !slices.Equal(slowEvs, fastEvs[len(fastEvs)-4:]) {
		t.Errorf("drops must come off the head, not punch holes: slow ring %+v, the feed's last four %+v",
			slowEvs, fastEvs[len(fastEvs)-4:])
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
	ev := Record{Type: RecPlace, ID: 7, Backend: "m0", Workload: "gcc", VCPUs: 16}
	// Warm the ring into its steady overwrite state.
	for i := 0; i < 16; i++ {
		f.mu.Lock()
		f.commitLocked(&ev)
		f.mu.Unlock()
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.mu.Lock()
		f.commitLocked(&ev)
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
// every subscriber's received+dropped equals the published total — the
// records the log took whose type the feed carries — and drained sequences
// are strictly increasing.
func TestEventStressRace(t *testing.T) {
	ctx := context.Background()
	f, _, _ := eventFleet(t)
	p := &memPersister{}
	f.SetPersister(p)
	subs := []*Subscription{f.Subscribe(8), f.Subscribe(64), f.Subscribe(1024)}
	received := make([][]Record, len(subs))
	droppedTotal := make([]uint64, len(subs))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Drainers: one per subscription, spinning.
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s *Subscription) {
			defer wg.Done()
			buf := make([]Record, 16)
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

	var published uint64
	for _, r := range p.records() {
		if r.Type.EventName() != "" {
			published++
		}
	}
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
	ev := Record{Type: RecPlace, ID: 1, Backend: "m0", Workload: "gcc", VCPUs: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mu.Lock()
		f.commitLocked(&ev)
		f.mu.Unlock()
	}
}
