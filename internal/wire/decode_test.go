package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/wire"
)

// agree holds one recogniser to its contract on b: declining writes nothing,
// and accepting means encoding/json accepts b with an equal value.
func agree[T any](t *testing.T, name string, b []byte, decode func([]byte, *T) bool) {
	t.Helper()
	var fast, slow, zero T
	if !decode(b, &fast) {
		if !reflect.DeepEqual(fast, zero) {
			t.Errorf("%s declined %q but wrote %+v", name, b, fast)
		}
		return
	}
	if err := json.Unmarshal(b, &slow); err != nil {
		t.Errorf("%s accepted %q as %+v; encoding/json: %v", name, b, fast, err)
	} else if !reflect.DeepEqual(fast, slow) {
		t.Errorf("%s read %q as %+v; encoding/json reads %+v", name, b, fast, slow)
	}
}

// FuzzWireDecode is the differential test behind "recognise or hand to
// encoding/json": no input may be read differently by the two.
func FuzzWireDecode(f *testing.F) {
	for _, tc := range routeCases() {
		if len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	adm := fleet.Admission{ID: 42, Backend: "rack1/m3", Assignment: sched.Assignment{
		ID: 7, Workload: "lbm", VCPUs: 16, Class: 3, Nodes: topology.NewNodeSet(1, 4, 6),
		BasePerf: 1.25, ProbePerf: 1e-7, PredictedPerf: 0.3333333333333333}}
	f.Add(wire.AppendPlace(nil, &adm))
	for ty := fleet.RecPlace; ty <= fleet.RecRevive; ty++ {
		if ty.EventName() == "" {
			continue
		}
		ev := fleet.Record{Seq: 9, Type: ty, ID: -1, Backend: "m0", Dest: "m1", Workload: "gcc", VCPUs: 4,
			ToHealth: fleet.Dead, Moves: 2, Intra: 1, Examined: 3, Stranded: 1, Fenced: 5, Seconds: 2.5e6}
		f.Add(wire.AppendEvent(nil, &ev))
	}
	_, dropped, _ := bytes.Cut(bytes.TrimSpace(wire.AppendDroppedSSE(nil, 17)), []byte("data: "))
	f.Add(dropped)
	for _, s := range []string{
		`{"seq":-0}`, `{"id":-0}`, `{"id":01}`, `{"id":1.0}`, `{"id":1e2}`, `{"vcpus":1234567890123456789}`,
		`{"seq":18446744073709551615}`, `{"id":999999999999999999}`, `{"id":-999999999999999999}`,
		`{"id":1,"id":2}`, `{"id":1,"ID":2}`, `{"Workload":"gcc"}`, `{"id":null}`, `null`, `{}`, ` { } `, `{,}`,
		`{"id":1,}`, `{"id":1}x`, `{"id":1} {"id":2}`, `{"id":1}` + "\n", "{\"id\"\t:\r\n1 }", "{\"id\":\x001}",
		`{"workload":"g\u0063c","vcpus":1}`, `{"workload":"g\"c"}`, "{\"workload\":\"caf\xc3\xa9\"}", "{\"workload\":\"\xff\"}",
		"{\"workload\":\"a\x7fb\"}", "{\"workload\":\"a\nb\"}", `{"work\u006coad":"gcc"}`, `{"workload":"gcc","vcpus":"1"}`,
		`{"assignment":{"nodes":[]}}`, `{"assignment":{"nodes":null}}`, `{"assignment":{"nodes":[1,2],"nodes":[3]}}`,
		`{"assignment":{"id":1},"assignment":{"vcpus":2}}`, `{"assignment":{"nodes":[1,]}}`, `{"assignment":{"nodes":[,1]}}`,
		`{"assignment":{"nodes":[1 2]}}`, `{"assignment":{"nodes":[1,2]],"id":3}}`, `{"assignment":null}`, `{"assignment":[]}`,
		`{"assignment":{"base_perf":1e999}}`, `{"assignment":{"base_perf":-0.0e-0,"probe_perf":1E+2,"predicted_perf":0.5}}`,
		`{"assignment":{"base_perf":.5}}`, `{"assignment":{"base_perf":1.}}`, `{"assignment":{"base_perf":+1}}`,
		`{"assignment":{"base_perf":0x10}}`, `{"assignment":{"base_perf":1_0}}`, `{"assignment":{"base_perf":Inf}}`,
		`{"seconds":1e}`, `{"seconds":-}`, `{"type":"place","from_health":"health(7)"}`, `{"dropped":17}`, `{"dropped":-1}`,
		`[{"id":1}]`, `"id"`, `1`, ``, `{`, `{"id"`, `{"id":`, `{"id":1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, "decodePlaceRequest", b, wire.DecodePlaceRequest)
		agree(t, "decodeReleaseRequest", b, wire.DecodeReleaseRequest)
		agree(t, "DecodePlaceResponse", b, wire.DecodePlaceResponse)
		agree(t, "DecodeEvent", b, wire.DecodeEvent)
	})
}
