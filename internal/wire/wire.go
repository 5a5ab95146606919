// Wire DTOs and encoders for the numaplaced protocol.
//
// Everything crossing the wire is JSON. Cold paths (stats, pass reports)
// go through encoding/json on mirror structs declared here. The two hot
// paths — an admission cycle (the Place and Release requests and responses,
// and each element of /v1/assignments) and the /v1/events SSE frames — use
// hand-rolled append-style encoders (strconv.Append*) so a pooled buffer
// serves the whole request with zero allocations (TestAppendAllocFree holds
// them to 0), and the recognisers of decode.go on the way in.
package wire

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/fleet"
	"repro/internal/topology"
)

// PlaceRequest asks the daemon to admit one container.
type PlaceRequest struct {
	Workload string `json:"workload"`
	VCPUs    int    `json:"vcpus"`
}

// Assignment mirrors the backend scheduler's assignment. Its ID is
// backend-local (changes when the container migrates); the fleet-wide
// handle is PlaceResponse.ID. Thread pinnings stay server-side — node IDs
// are the placement-relevant facts.
type Assignment struct {
	ID            int     `json:"id"`
	Workload      string  `json:"workload"`
	VCPUs         int     `json:"vcpus"`
	Class         int     `json:"class"`
	Nodes         []int   `json:"nodes"`
	BasePerf      float64 `json:"base_perf"`
	ProbePerf     float64 `json:"probe_perf"`
	PredictedPerf float64 `json:"predicted_perf"`
}

// PlaceResponse reports a successful admission. It is the decode side: the
// server encodes admissions with AppendPlace.
type PlaceResponse struct {
	ID         int        `json:"id"` // fleet-wide container handle
	Backend    string     `json:"backend"`
	Assignment Assignment `json:"assignment"`
}

// ReleaseRequest evicts a placed container by fleet-wide ID.
type ReleaseRequest struct {
	ID int `json:"id"`
}

// ReleaseResponse acknowledges an eviction.
type ReleaseResponse struct {
	ID int `json:"id"`
}

// BackendRequest names a backend for drain/resume/health operations.
type BackendRequest struct {
	Backend string `json:"backend"`
}

// RebalanceRequest bounds a fleet-wide rebalance pass; BudgetSeconds <= 0
// means unbudgeted.
type RebalanceRequest struct {
	BudgetSeconds float64 `json:"budget_seconds"`
}

// FailoverRequest retries stranded tenants of a dead backend.
type FailoverRequest struct {
	Backend       string  `json:"backend"`
	BudgetSeconds float64 `json:"budget_seconds"`
}

// Move mirrors fleet.Move.
type Move struct {
	ID       int     `json:"id"`
	Workload string  `json:"workload"`
	VCPUs    int     `json:"vcpus"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	Seconds  float64 `json:"seconds"`
}

// Report mirrors fleet.Report; per-backend intra passes are flattened to
// their move count.
type Report struct {
	Moves         []Move   `json:"moves"`
	IntraMoves    int      `json:"intra_moves"`
	Drained       []string `json:"drained,omitempty"`
	Examined      int      `json:"examined"`
	Stranded      int      `json:"stranded"`
	TotalSeconds  float64  `json:"total_seconds"`
	BudgetSeconds float64  `json:"budget_seconds"`
}

// ReportFrom converts a fleet pass report to its wire mirror; nil maps to
// nil.
func ReportFrom(rep *fleet.Report) *Report {
	if rep == nil {
		return nil
	}
	out := &Report{
		Moves:         make([]Move, 0, len(rep.Moves)),
		Drained:       rep.Drained,
		Examined:      rep.Examined,
		Stranded:      rep.Stranded,
		TotalSeconds:  rep.TotalSeconds,
		BudgetSeconds: rep.BudgetSeconds,
	}
	for _, m := range rep.Moves {
		out.Moves = append(out.Moves, Move{ID: m.ID, Workload: m.Workload, VCPUs: m.VCPUs,
			From: m.From, To: m.To, Seconds: m.Seconds})
	}
	for _, ip := range rep.Intra {
		out.IntraMoves += len(ip.Report.Moves)
	}
	return out
}

// HealthResponse reports one backend's health state (and, for transitions
// that triggered a failover pass, its report).
type HealthResponse struct {
	Backend string  `json:"backend"`
	Health  string  `json:"health"`
	Report  *Report `json:"report,omitempty"`
}

// ReviveResponse reports a successful revive.
type ReviveResponse struct {
	Backend string `json:"backend"`
	Fenced  int    `json:"fenced"`
}

// BackendStats mirrors fleet.BackendStats.
type BackendStats struct {
	Name        string  `json:"name"`
	Machine     string  `json:"machine"`
	Domain      string  `json:"domain,omitempty"`
	Health      string  `json:"health"`
	Draining    bool    `json:"draining"`
	Tenants     int     `json:"tenants"`
	FreeNodes   int     `json:"free_nodes"`
	TotalNodes  int     `json:"total_nodes"`
	Utilization float64 `json:"utilization"`
}

// DomainStats mirrors fleet.DomainStats.
type DomainStats struct {
	Domain      string  `json:"domain"`
	Backends    int     `json:"backends"`
	Dead        int     `json:"dead"`
	Tenants     int     `json:"tenants"`
	FreeNodes   int     `json:"free_nodes"`
	TotalNodes  int     `json:"total_nodes"`
	Utilization float64 `json:"utilization"`
}

// Stats mirrors fleet.Stats.
type Stats struct {
	Backends         []BackendStats `json:"backends"`
	Domains          []DomainStats  `json:"domains"`
	Tenants          int            `json:"tenants"`
	Admitted         int64          `json:"admitted"`
	Rejected         int64          `json:"rejected"`
	Released         int64          `json:"released"`
	Moves            int64          `json:"moves"`
	Failovers        int64          `json:"failovers"`
	FailedOver       int64          `json:"failed_over"`
	MigrationSeconds float64        `json:"migration_seconds"`
	Utilization      float64        `json:"utilization"`
}

// StatsFrom converts fleet stats to the wire mirror.
func StatsFrom(s fleet.Stats) Stats {
	out := Stats{
		Backends:         make([]BackendStats, 0, len(s.Backends)),
		Domains:          make([]DomainStats, 0, len(s.Domains)),
		Tenants:          s.Tenants,
		Admitted:         s.Admitted,
		Rejected:         s.Rejected,
		Released:         s.Released,
		Moves:            s.Moves,
		Failovers:        s.Failovers,
		FailedOver:       s.FailedOver,
		MigrationSeconds: s.MigrationSeconds,
		Utilization:      s.Utilization,
	}
	for _, b := range s.Backends {
		out.Backends = append(out.Backends, BackendStats{
			Name: b.Name, Machine: b.Machine, Domain: b.Domain,
			Health: b.Health.String(), Draining: b.Draining, Tenants: b.Tenants,
			FreeNodes: b.FreeNodes, TotalNodes: b.TotalNodes, Utilization: b.Utilization,
		})
	}
	for _, d := range s.Domains {
		out.Domains = append(out.Domains, DomainStats{
			Domain: d.Domain, Backends: d.Backends, Dead: d.Dead, Tenants: d.Tenants,
			FreeNodes: d.FreeNodes, TotalNodes: d.TotalNodes, Utilization: d.Utilization,
		})
	}
	return out
}

// AssignmentsResponse lists every live admission (decode side, as
// PlaceResponse is).
type AssignmentsResponse struct {
	Assignments []PlaceResponse `json:"assignments"`
}

// LogHead reports the daemon's durability position (GET /v1/log/head).
// Seq is the last write-ahead sequence the fleet assigned; on a daemon
// running without -data-dir it still advances per mutation only if a
// persister is attached, so Persistent distinguishes "seq 0 because
// nothing happened" from "seq 0 because nothing is logged".
type LogHead struct {
	// Seq is the last sequence appended to the log (0 for a fresh log).
	Seq uint64 `json:"seq"`
	// SnapshotSeq is the sequence the newest snapshot covers (0: none).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// RecoveredSeq is the sequence boot-time recovery replayed up to;
	// Seq minus RecoveredSeq is the work accepted since the last restart.
	RecoveredSeq uint64 `json:"recovered_seq"`
	// RecoveredTenants counts the live admissions reconstructed at boot.
	RecoveredTenants int `json:"recovered_tenants"`
	// Persistent reports whether a write-ahead log is attached at all.
	Persistent bool `json:"persistent"`
}

// SnapshotResponse acknowledges a forced checkpoint (POST /v1/snapshot)
// with the sequence the snapshot covers.
type SnapshotResponse struct {
	Seq uint64 `json:"seq"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the stable code (see errors.go), the HTTP status it
// shipped with, the server's error text, and — for failover-style
// operations that fail partway — the partial pass report.
type ErrorDetail struct {
	Code    ErrCode `json:"code"`
	Status  int     `json:"status"`
	Message string  `json:"message"`
	Report  *Report `json:"report,omitempty"`
}

// Event is the decode-side mirror of a fleet event as framed on
// /v1/events. The encode side is AppendEvent (hand-rolled); this struct
// exists for clients. Optional fields keep their zero value when the frame
// omitted them; ID is always present (-1 for non-container events).
type Event struct {
	Seq        uint64  `json:"seq"`
	Type       string  `json:"type"`
	ID         int     `json:"id"`
	Backend    string  `json:"backend,omitempty"`
	Dest       string  `json:"dest,omitempty"`
	Workload   string  `json:"workload,omitempty"`
	VCPUs      int     `json:"vcpus,omitempty"`
	FromHealth string  `json:"from_health,omitempty"`
	ToHealth   string  `json:"to_health,omitempty"`
	Moves      int     `json:"moves,omitempty"`
	IntraMoves int     `json:"intra_moves,omitempty"`
	Examined   int     `json:"examined,omitempty"`
	Stranded   int     `json:"stranded,omitempty"`
	Fenced     int     `json:"fenced,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	// Dropped is the payload of the synthetic "dropped" frame the server
	// injects when a slow consumer lost events (backpressure policy).
	Dropped uint64 `json:"dropped,omitempty"`
}

// appendString appends s as a JSON string. Where strconv.AppendQuote's
// spelling is JSON it is kept, byte for byte — printable runes as they are,
// the two-character escapes, \uXXXX for an unprintable rune of the BMP; where
// it is not (\x7f, \a, \v, \xff for a byte of invalid UTF-8, \U000e0001)
// this writes what encoding/json would: \u00XX, U+FFFD, the rune itself.
//
//numalint:noalloc
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, r, size := s[i], rune(s[i]), 1
		raw := c >= 0x20 && c != '"' && c != '\\' && c != 0x7f
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			raw = r > 0xffff || strconv.IsPrint(r) && (r != utf8.RuneError || size > 1)
		}
		if raw {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendPlaceRequest appends the PlaceRequest JSON.
//
//numalint:noalloc
func AppendPlaceRequest(dst []byte, workload string, vcpus int) []byte {
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, workload)
	dst = append(dst, `,"vcpus":`...)
	dst = strconv.AppendInt(dst, int64(vcpus), 10)
	return append(dst, '}')
}

// AppendRelease appends {"id":N}, which is both ReleaseRequest and
// ReleaseResponse.
//
//numalint:noalloc
func AppendRelease(dst []byte, id int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, '}')
}

// AppendPlace appends the PlaceResponse JSON for one admission to dst and
// returns the extended slice. Allocation-free for dst with spare capacity:
// node IDs are walked straight off the NodeSet bitmask.
//
//numalint:noalloc
func AppendPlace(dst []byte, adm *fleet.Admission) []byte {
	a := &adm.Assignment
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(adm.ID), 10)
	dst = append(dst, `,"backend":`...)
	dst = appendString(dst, adm.Backend)
	dst = append(dst, `,"assignment":{"id":`...)
	dst = strconv.AppendInt(dst, int64(a.ID), 10)
	dst = append(dst, `,"workload":`...)
	dst = appendString(dst, a.Workload)
	dst = append(dst, `,"vcpus":`...)
	dst = strconv.AppendInt(dst, int64(a.VCPUs), 10)
	dst = append(dst, `,"class":`...)
	dst = strconv.AppendInt(dst, int64(a.Class), 10)
	dst = append(dst, `,"nodes":[`...)
	first := true
	for id := topology.NodeID(0); id < 64; id++ {
		if !a.Nodes.Contains(id) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	dst = append(dst, `],"base_perf":`...)
	dst = strconv.AppendFloat(dst, a.BasePerf, 'g', -1, 64)
	dst = append(dst, `,"probe_perf":`...)
	dst = strconv.AppendFloat(dst, a.ProbePerf, 'g', -1, 64)
	dst = append(dst, `,"predicted_perf":`...)
	dst = strconv.AppendFloat(dst, a.PredictedPerf, 'g', -1, 64)
	dst = append(dst, `}}`...)
	return dst
}

// AppendEvent appends one fleet record as an event-feed JSON object: the
// fields a watcher is told, not the engine-private ones (EngineID, ClassID,
// Nodes, BasePerf, ProbePerf, Misses, Failover). Field set varies by type but
// is a pure function of the record value, so identical streams encode to
// identical bytes (the determinism tests rely on this).
//
//numalint:noalloc
func AppendEvent(dst []byte, ev *fleet.Record) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"type":`...)
	dst = appendString(dst, ev.Type.EventName())
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, int64(ev.ID), 10)
	if ev.Backend != "" {
		dst = append(dst, `,"backend":`...)
		dst = appendString(dst, ev.Backend)
	}
	if ev.Dest != "" {
		dst = append(dst, `,"dest":`...)
		dst = appendString(dst, ev.Dest)
	}
	if ev.Workload != "" {
		dst = append(dst, `,"workload":`...)
		dst = appendString(dst, ev.Workload)
	}
	if ev.VCPUs != 0 {
		dst = append(dst, `,"vcpus":`...)
		dst = strconv.AppendInt(dst, int64(ev.VCPUs), 10)
	}
	if ev.Type == fleet.RecHealth {
		dst = append(dst, `,"from_health":`...)
		dst = appendString(dst, ev.FromHealth.String())
		dst = append(dst, `,"to_health":`...)
		dst = appendString(dst, ev.ToHealth.String())
	}
	if ev.Moves != 0 {
		dst = append(dst, `,"moves":`...)
		dst = strconv.AppendInt(dst, int64(ev.Moves), 10)
	}
	if ev.Intra != 0 {
		dst = append(dst, `,"intra_moves":`...)
		dst = strconv.AppendInt(dst, int64(ev.Intra), 10)
	}
	if ev.Examined != 0 {
		dst = append(dst, `,"examined":`...)
		dst = strconv.AppendInt(dst, int64(ev.Examined), 10)
	}
	if ev.Stranded != 0 {
		dst = append(dst, `,"stranded":`...)
		dst = strconv.AppendInt(dst, int64(ev.Stranded), 10)
	}
	if ev.Fenced != 0 {
		dst = append(dst, `,"fenced":`...)
		dst = strconv.AppendInt(dst, int64(ev.Fenced), 10)
	}
	if ev.Seconds != 0 {
		dst = append(dst, `,"seconds":`...)
		dst = strconv.AppendFloat(dst, ev.Seconds, 'g', -1, 64)
	}
	return append(dst, '}')
}

// AppendSSE appends one fleet record as a complete Server-Sent-Events frame:
//
//	event: <type>\n
//	data: <AppendEvent JSON>\n
//	\n
//
//numalint:noalloc
func AppendSSE(dst []byte, ev *fleet.Record) []byte {
	dst = append(dst, `event: `...)
	dst = append(dst, ev.Type.EventName()...)
	dst = append(dst, "\ndata: "...)
	dst = AppendEvent(dst, ev)
	return append(dst, "\n\n"...)
}

// AppendDroppedSSE appends the synthetic backpressure frame announcing n
// events were dropped between the previous frame and the next one.
//
//numalint:noalloc
func AppendDroppedSSE(dst []byte, n uint64) []byte {
	dst = append(dst, "event: dropped\ndata: {\"dropped\":"...)
	dst = strconv.AppendUint(dst, n, 10)
	return append(dst, "}\n\n"...)
}
