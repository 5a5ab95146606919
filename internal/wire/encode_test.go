package wire

import (
	"bytes"
	"encoding/json"
	"strconv"
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

	// Names Go's quoting spells in ways JSON has no escape for.
	for _, name := range hostileNames {
		adm.Backend, adm.Assignment.Workload = name, name
		b := AppendPlace(nil, &adm)
		if err := json.Unmarshal(b, &got); err != nil {
			t.Errorf("AppendPlace with name %q produced invalid JSON %q: %v", name, b, err)
			continue
		}
		if want := viaJSON(name); got.Backend != want || got.Assignment.Workload != want {
			t.Errorf("AppendPlace with name %q decoded to %q, %q", name, got.Backend, got.Assignment.Workload)
		}
	}
}

// hostileNames are legal Go strings a backend, domain or workload may be
// called: controls, DEL, invalid UTF-8 (which JSON carries as U+FFFD), and
// non-printable runes inside and above the BMP.
var hostileNames = []string{
	"bell\a", "del\x7f", "vt\v nul\x00 esc\x1b", "tab\t nl\n cr\r bs\b ff\f",
	"bad\xff utf8", "cut\xe2\x82", "tag\U000e0001", "nbsp\u00a0 zwsp\u200b ls\u2028",
	`quote" slash\ <html>&`, "héllo wörld 日本", "",
}

// viaJSON is name as it reads after a trip through encoding/json: each byte of
// invalid UTF-8 is U+FFFD.
func viaJSON(name string) string {
	b, _ := json.Marshal(name)
	json.Unmarshal(b, &name)
	return name
}

// TestAppendStringKeepsValidQuoting: the encoders' strings differ from
// strconv.AppendQuote's only where that spelling is not JSON.
func TestAppendStringKeepsValidQuoting(t *testing.T) {
	for _, name := range append(hostileNames, "gcc", "rack1/m3", "\u00e9\ufffd\u0085\U0001f600") {
		parts := []string{name}
		for _, r := range name {
			parts = append(parts, string(r))
		}
		for _, part := range parts {
			got, quoted := appendString(nil, part), strconv.AppendQuote(nil, part)
			if json.Valid(quoted) && !bytes.Equal(got, quoted) {
				t.Errorf("appendString(%q) = %s, want Go's valid %s kept", part, got, quoted)
			}
			var back string
			if err := json.Unmarshal(got, &back); err != nil || back != viaJSON(part) {
				t.Errorf("appendString(%q) = %s decodes to %q, %v", part, got, back, err)
			}
		}
	}
}

// TestAppendRequests: the request encoders decode, through the server's
// recognisers and through encoding/json, to what was encoded.
func TestAppendRequests(t *testing.T) {
	for _, name := range append(hostileNames, "gcc") {
		b := AppendPlaceRequest(nil, name, -7)
		want := PlaceRequest{Workload: viaJSON(name), VCPUs: -7}
		var got, fast PlaceRequest
		if err := json.Unmarshal(b, &got); err != nil || got != want {
			t.Errorf("AppendPlaceRequest(%q) = %q decoded to %+v, %v", name, b, got, err)
		}
		if decodePlaceRequest(b, &fast) && fast != want {
			t.Errorf("decodePlaceRequest(%q) = %+v, want %+v", b, fast, want)
		}
	}
	for _, id := range []int{0, 7, -1, 1 << 40} {
		b := AppendRelease(nil, id)
		var got ReleaseRequest
		var fast ReleaseRequest
		if err := json.Unmarshal(b, &got); err != nil || got.ID != id {
			t.Errorf("AppendRelease(%d) = %q decoded to %+v, %v", id, b, got, err)
		}
		if !decodeReleaseRequest(b, &fast) || fast.ID != id {
			t.Errorf("decodeReleaseRequest(%q) = %+v", b, fast)
		}
		if mj, _ := json.Marshal(ReleaseResponse{ID: id}); !bytes.Equal(b, mj) {
			t.Errorf("AppendRelease(%d) = %q, encoding/json writes %q", id, b, mj)
		}
	}
}

// TestAppendEvent checks each event shape decodes into the client DTO with
// the right per-type field set.
func TestAppendEvent(t *testing.T) {
	cases := []struct {
		ev   fleet.Record
		want Event
	}{
		{
			fleet.Record{Seq: 1, Type: fleet.RecPlace, ID: 3, Backend: "m0", Workload: "gcc", VCPUs: 16},
			Event{Seq: 1, Type: "place", ID: 3, Backend: "m0", Workload: "gcc", VCPUs: 16},
		},
		{
			fleet.Record{Seq: 2, Type: fleet.RecHealth, ID: -1, Backend: "m0", FromHealth: fleet.Healthy, ToHealth: fleet.Suspect},
			Event{Seq: 2, Type: "health", ID: -1, Backend: "m0", FromHealth: "healthy", ToHealth: "suspect"},
		},
		{
			fleet.Record{Seq: 3, Type: fleet.RecMove, ID: 5, Backend: "m0", Dest: "m1", Workload: "lbm", VCPUs: 8, Seconds: 2.5},
			Event{Seq: 3, Type: "move", ID: 5, Backend: "m0", Dest: "m1", Workload: "lbm", VCPUs: 8, Seconds: 2.5},
		},
		{
			fleet.Record{Seq: 4, Type: fleet.RecFailover, ID: -1, Backend: "m0", Moves: 2, Examined: 3, Stranded: 1, Seconds: 10},
			Event{Seq: 4, Type: "failover", ID: -1, Backend: "m0", Moves: 2, Examined: 3, Stranded: 1, Seconds: 10},
		},
		{
			fleet.Record{Seq: 5, Type: fleet.RecRebalance, ID: -1, Moves: 4, Intra: 2, Examined: 9, Seconds: 1.5},
			Event{Seq: 5, Type: "rebalance", ID: -1, Moves: 4, IntraMoves: 2, Examined: 9, Seconds: 1.5},
		},
		{
			fleet.Record{Seq: 6, Type: fleet.RecRevive, ID: -1, Backend: "m1", Fenced: 3},
			Event{Seq: 6, Type: "revive", ID: -1, Backend: "m1", Fenced: 3},
		},
		{
			fleet.Record{Seq: 7, Type: fleet.RecResume, ID: -1, Backend: "m1"},
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
		var fast Event
		if !DecodeEvent(b, &fast) || fast != tc.want {
			t.Errorf("DecodeEvent(%s) = %+v, want %+v", b, fast, tc.want)
		}
	}
	for _, name := range hostileNames {
		ev := fleet.Record{Seq: 8, Type: fleet.RecMove, ID: 1, Backend: name, Dest: name, Workload: name}
		b := AppendEvent(nil, &ev)
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Errorf("AppendEvent with name %q produced invalid JSON %q: %v", name, b, err)
			continue
		}
		if want := viaJSON(name); got.Backend != want || got.Dest != want || got.Workload != want {
			t.Errorf("AppendEvent with name %q decoded to %q, %q, %q", name, got.Backend, got.Dest, got.Workload)
		}
	}
}

// TestAppendSSEFraming checks the SSE envelope and the synthetic dropped
// frame.
func TestAppendSSEFraming(t *testing.T) {
	ev := fleet.Record{Seq: 9, Type: fleet.RecRelease, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
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
	ev := fleet.Record{Seq: 9, Type: fleet.RecPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() { _ = AppendPlace(dst, &adm) }); n != 0 {
		t.Errorf("AppendPlace allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = AppendSSE(dst, &ev) }); n != 0 {
		t.Errorf("AppendSSE allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = AppendPlaceRequest(dst, "gcc", 16) }); n != 0 {
		t.Errorf("AppendPlaceRequest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = AppendRelease(dst, 42) }); n != 0 {
		t.Errorf("AppendRelease allocates %.1f/op, want 0", n)
	}
}

// TestDecodeAllocCeiling: a recogniser allocates what its value must own —
// the strings and the node list — and nothing else.
func TestDecodeAllocCeiling(t *testing.T) {
	adm := sampleAdmission()
	adm.Assignment.Workload = "lbm"
	ev := fleet.Record{Seq: 9, Type: fleet.RecPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	place, frame := AppendPlace(nil, &adm), AppendEvent(nil, &ev)
	placeReq, releaseReq := AppendPlaceRequest(nil, "gcc", 16), AppendRelease(nil, 42)
	for _, tc := range []struct {
		name    string
		ceiling float64
		decode  func() bool
	}{
		{"decodeReleaseRequest", 0, func() bool { return decodeReleaseRequest(releaseReq, new(ReleaseRequest)) }},
		{"decodePlaceRequest", 1, func() bool { return decodePlaceRequest(placeReq, new(PlaceRequest)) }},
		{"DecodeEvent", 2, func() bool { return DecodeEvent(frame, new(Event)) }},
		{"DecodePlaceResponse", 3, func() bool { return DecodePlaceResponse(place, new(PlaceResponse)) }},
	} {
		if !tc.decode() {
			t.Errorf("%s declined its own encoder's output", tc.name)
		}
		if n := testing.AllocsPerRun(200, func() { tc.decode() }); n > tc.ceiling {
			t.Errorf("%s allocates %.1f/op, want <= %.0f", tc.name, n, tc.ceiling)
		}
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

// BenchmarkWireDecodePlace times the client's recogniser on the Place response
// (TestDecodeAllocCeiling holds it to its two strings and node list).
func BenchmarkWireDecodePlace(b *testing.B) {
	adm := sampleAdmission()
	adm.Assignment.Workload = "lbm"
	body := AppendPlace(nil, &adm)
	var out PlaceResponse
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !DecodePlaceResponse(body, &out) {
			b.Fatal("declined")
		}
	}
}

// BenchmarkWireDecodeEvent times the subscriber's recogniser on a place frame.
func BenchmarkWireDecodeEvent(b *testing.B) {
	ev := fleet.Record{Seq: 9, Type: fleet.RecPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	data := AppendEvent(nil, &ev)
	var out Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !DecodeEvent(data, &out) {
			b.Fatal("declined")
		}
	}
}

// BenchmarkWireAppendSSE times the pooled encoding of event frames
// (TestAppendAllocFree holds it to 0 allocs).
func BenchmarkWireAppendSSE(b *testing.B) {
	ev := fleet.Record{Seq: 9, Type: fleet.RecPlace, ID: 2, Backend: "m0", Workload: "gcc", VCPUs: 4}
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendSSE(dst[:0], &ev)
	}
}
