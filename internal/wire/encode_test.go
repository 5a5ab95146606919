package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/topology"
)

func sampleAdmission() fleet.Admission {
	return fleet.Admission{
		ID:      42,
		Backend: "rack1/m3",
		Assignment: sched.Assignment{
			ID: 7, Workload: `lbm"x`, VCPUs: 16, Class: 3,
			Nodes:    topology.NewNodeSet(1, 4, 6),
			BasePerf: 1.25, ProbePerf: 0.75, PredictedPerf: 0.3333333333333333,
		},
	}
}

// TestAppendPlace checks the hand-rolled encoder against encoding/json's
// reading of it: the hot-path bytes must decode to exactly the DTO the
// client expects, quoting and float formatting included.
func TestAppendPlace(t *testing.T) {
	adm := sampleAdmission()
	b := AppendPlace(nil, &adm)
	var got PlaceResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("AppendPlace produced invalid JSON %q: %v", b, err)
	}
	want := PlaceResponse{ID: 42, Backend: "rack1/m3", Assignment: Assignment{
		ID: 7, Workload: `lbm"x`, VCPUs: 16, Class: 3, Nodes: []int{1, 4, 6},
		BasePerf: 1.25, ProbePerf: 0.75, PredictedPerf: 0.3333333333333333,
	}}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("AppendPlace decoded to\n%s\nwant\n%s", gj, wj)
	}
}

// TestAppendEvent checks each event shape decodes into the client DTO with
// the right per-type field set.
func TestAppendEvent(t *testing.T) {
	cases := []struct {
		ev   fleet.Event
		want Event
	}{
		{
			fleet.Event{Seq: 1, Type: fleet.EvPlace, ID: 3, Backend: "m0", Workload: "gcc", VCPUs: 16},
			Event{Seq: 1, Type: "place", ID: 3, Backend: "m0", Workload: "gcc", VCPUs: 16},
		},
		{
			fleet.Event{Seq: 2, Type: fleet.EvHealth, ID: -1, Backend: "m0", FromHealth: fleet.Healthy, ToHealth: fleet.Suspect},
			Event{Seq: 2, Type: "health", ID: -1, Backend: "m0", FromHealth: "healthy", ToHealth: "suspect"},
		},
		{
			fleet.Event{Seq: 3, Type: fleet.EvMove, ID: 5, Backend: "m0", Dest: "m1", Workload: "lbm", VCPUs: 8, Seconds: 2.5},
			Event{Seq: 3, Type: "move", ID: 5, Backend: "m0", Dest: "m1", Workload: "lbm", VCPUs: 8, Seconds: 2.5},
		},
		{
			fleet.Event{Seq: 4, Type: fleet.EvFailover, ID: -1, Backend: "m0", Moves: 2, Examined: 3, Stranded: 1, Seconds: 10},
			Event{Seq: 4, Type: "failover", ID: -1, Backend: "m0", Moves: 2, Examined: 3, Stranded: 1, Seconds: 10},
		},
		{
			fleet.Event{Seq: 5, Type: fleet.EvRebalance, ID: -1, Moves: 4, Intra: 2, Examined: 9, Seconds: 1.5},
			Event{Seq: 5, Type: "rebalance", ID: -1, Moves: 4, IntraMoves: 2, Examined: 9, Seconds: 1.5},
		},
		{
			fleet.Event{Seq: 6, Type: fleet.EvRevive, ID: -1, Backend: "m1", Fenced: 3},
			Event{Seq: 6, Type: "revive", ID: -1, Backend: "m1", Fenced: 3},
		},
		{
			fleet.Event{Seq: 7, Type: fleet.EvResume, ID: -1, Backend: "m1"},
			Event{Seq: 7, Type: "resume", ID: -1, Backend: "m1"},
		},
	}
	for _, tc := range cases {
		b := AppendEvent(nil, &tc.ev)
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("AppendEvent(%s) produced invalid JSON %q: %v", tc.ev.Type, b, err)
		}
		if got != tc.want {
			t.Errorf("AppendEvent(%s) decoded to %+v, want %+v", tc.ev.Type, got, tc.want)
		}
	}
}

// TestAppendSSEFraming checks the SSE envelope and the synthetic dropped
// frame.
func TestAppendSSEFraming(t *testing.T) {
	ev := fleet.Event{Seq: 9, Type: fleet.EvRelease, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	frame := string(AppendSSE(nil, &ev))
	if want := "event: release\ndata: "; frame[:len(want)] != want {
		t.Errorf("frame prefix %q, want %q", frame[:len(want)], want)
	}
	if frame[len(frame)-2:] != "\n\n" {
		t.Errorf("frame must end with blank line, got %q", frame)
	}
	drop := string(AppendDroppedSSE(nil, 17))
	if drop != "event: dropped\ndata: {\"dropped\":17}\n\n" {
		t.Errorf("dropped frame %q", drop)
	}
}

// TestAppendAllocFree pins the pooled-encoding guarantee: with a
// pre-sized destination, the hot-path encoders allocate nothing.
func TestAppendAllocFree(t *testing.T) {
	adm := sampleAdmission()
	ev := fleet.Event{Seq: 9, Type: fleet.EvPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() { _ = AppendPlace(dst, &adm) }); n != 0 {
		t.Errorf("AppendPlace allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = AppendSSE(dst, &ev) }); n != 0 {
		t.Errorf("AppendSSE allocates %.1f/op, want 0", n)
	}
}

// BenchmarkWireAppendPlace times the pooled encoding of the Place response
// (TestAppendAllocFree holds it to 0 allocs).
func BenchmarkWireAppendPlace(b *testing.B) {
	adm := sampleAdmission()
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendPlace(dst[:0], &adm)
	}
}

// BenchmarkWireAppendSSE times the pooled encoding of event frames
// (TestAppendAllocFree holds it to 0 allocs).
func BenchmarkWireAppendSSE(b *testing.B) {
	ev := fleet.Event{Seq: 9, Type: fleet.EvPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendSSE(dst[:0], &ev)
	}
}
