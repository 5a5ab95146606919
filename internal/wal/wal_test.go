//go:build unix

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fleet"
	"repro/internal/nperr"
	"repro/internal/topology"
)

// sampleRecords builds n consistent records starting at seq 1, cycling
// through field shapes so every codec path is exercised.
func sampleRecords(n int) []fleet.Record {
	recs := make([]fleet.Record, n)
	for i := range recs {
		r := fleet.Record{Seq: uint64(i + 1), ID: -1}
		switch i % 4 {
		case 0:
			r.Type = fleet.RecPlace
			r.ID = i
			r.Backend = "m0"
			r.Workload = "swaptions"
			r.VCPUs = 16
			r.EngineID = i
			r.ClassID = 3
			r.Nodes = topology.NodeSet(0b1010)
			r.BasePerf = 1.25
			r.ProbePerf = 0.75
		case 1:
			r.Type = fleet.RecHealth
			r.Backend = "m1"
			r.FromHealth = fleet.Healthy
			r.ToHealth = fleet.Suspect
			r.Misses = 2
		case 2:
			r.Type = fleet.RecMove
			r.ID = i
			r.Backend = "m0"
			r.Dest = "m1"
			r.Workload = "WTbtree"
			r.VCPUs = 8
			r.Failover = true
			r.Seconds = 3.5
		default:
			r.Type = fleet.RecRebalance
			r.Moves = 2
			r.Intra = 1
			r.Examined = 7
			r.Seconds = 0.25
		}
		recs[i] = r
	}
	return recs
}

// writeLog creates a fresh log in dir holding recs and closes it.
func writeLog(t *testing.T, dir string, recs []fleet.Record) {
	t.Helper()
	l, st, got, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil || len(got) != 0 {
		t.Fatalf("fresh dir recovered state %v + %d records", st, len(got))
	}
	for _, r := range recs {
		l.Append(r)
	}
	if len(recs) > 0 {
		if err := l.Commit(recs[len(recs)-1].Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// minRecordPayload is a record's encoding with its three strings empty: 15
// u64 fields, 4 single bytes and 3 length bytes. No record frame is shorter
// than frameHeader+minRecordPayload.
const minRecordPayload = 15*8 + 4 + 3

func TestRecordCodecRoundTrip(t *testing.T) {
	if minRecordPayload != recordHead+3+recordTail {
		t.Fatalf("the fixed layout holds %d+3+%d bytes, the field walk %d", recordHead, recordTail, minRecordPayload)
	}
	var in interner
	for _, want := range sampleRecords(8) {
		payload, err := appendRecord(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("field walk diverged:\n got %+v\nwant %+v", got, want)
		}
		got = fleet.Record{}
		if !decodeRecordInto(&got, payload, &in) || !reflect.DeepEqual(got, want) {
			t.Fatalf("fixed-layout decode diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestAppendAllocFree holds the Persister hot path — Append (called under
// the fleet lock) plus the group-commit Commit at fsync=none — to zero
// allocations once the encode buffers are warm, for every record shape: an
// admission must not pay the garbage collector for durability.
func TestAppendAllocFree(t *testing.T) {
	l, _, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := sampleRecords(4)
	seq := uint64(0)
	cycle := func() {
		for _, r := range recs {
			seq++
			r.Seq = seq
			l.Append(r)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("warm Append+Commit allocates %.1f times per %d records, want 0", n, len(recs))
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords(25)
	writeLog(t, dir, want)

	l, st, got, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st != nil {
		t.Fatalf("unexpected snapshot: %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered records diverged (%d vs %d)", len(got), len(want))
	}
	h := l.Head()
	if h.Seq != 25 || h.RecoveredSeq != 25 || h.SnapshotSeq != 0 {
		t.Fatalf("head = %+v, want seq 25 / recovered 25 / snapshot 0", h)
	}
	// The reopened log keeps appending from where it recovered.
	next := fleet.Record{Seq: 26, Type: fleet.RecReject, ID: -1, Workload: "w", VCPUs: 4}
	l.Append(next)
	if err := l.Commit(26); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, again, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 26 || !reflect.DeepEqual(again[25], next) {
		t.Fatalf("append-after-recovery lost: %d records", len(again))
	}
}

// TestTornTailEveryOffset truncates the log at every byte offset and
// checks recovery never panics, never errors, and always returns exactly
// the records whose frames fit the prefix — then that the truncated log
// accepts appends again.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	want := sampleRecords(5)
	writeLog(t, base, want)
	blob, err := os.ReadFile(filepath.Join(base, "log"))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: how many records are whole at each prefix length.
	wholeAt := func(n int) int {
		recs, _, err := scanFrames(blob[len(logMagic):n])
		if err != nil {
			t.Fatalf("scan of valid prefix errored: %v", err)
		}
		return len(recs)
	}

	for cut := len(logMagic); cut < len(blob); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "log"), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, got, err := Open(Options{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != wholeAt(cut) {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wholeAt(cut))
		}
		// The torn suffix is gone from disk and the log accepts appends.
		l.Append(fleet.Record{Seq: uint64(len(got)) + 1, Type: fleet.RecReject, ID: -1})
		if err := l.Commit(uint64(len(got)) + 1); err != nil {
			t.Fatalf("cut at %d: append after truncation: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		_, _, again, err := Open(Options{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if len(again) != wholeAt(cut)+1 {
			t.Fatalf("cut at %d: reopen lost the post-truncation append", cut)
		}
	}
}

func TestDamagedFrameTreatedAsTail(t *testing.T) {
	base := t.TempDir()
	writeLog(t, base, sampleRecords(5))
	blob, err := os.ReadFile(filepath.Join(base, "log"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the third frame: that frame and everything
	// after it is unrecoverable (framing gives no resync point), so
	// recovery keeps the two clean records.
	recs, _, _ := scanFrames(blob[len(logMagic):])
	if len(recs) != 5 {
		t.Fatal("setup: expected 5 records")
	}
	var off = len(logMagic)
	for i := 0; i < 2; i++ {
		payload, _ := appendRecord(nil, &recs[i])
		off += frameHeader + len(payload)
	}
	flipped := append([]byte(nil), blob...)
	flipped[off+frameHeader+3] ^= 0x40

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, got, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records past a damaged frame, want 2", len(got))
	}
}

func TestStructuralCorruptionRefuses(t *testing.T) {
	mkdir := func(blob []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "log"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// Foreign magic.
	if _, _, _, err := Open(Options{Dir: mkdir([]byte("NOTALOG\x00plus junk"))}); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("foreign magic err = %v, want ErrLogCorrupt", err)
	}

	// A CRC-valid frame whose payload does not parse (truncated record).
	bad := append([]byte(nil), logMagic...)
	bad = appendFrame(bad, []byte{1, 2, 3})
	if _, _, _, err := Open(Options{Dir: mkdir(bad)}); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("unparsable payload err = %v, want ErrLogCorrupt", err)
	}

	// CRC-valid frames with a sequence gap.
	recs := sampleRecords(3)
	recs[2].Seq = 9
	gap := append([]byte(nil), logMagic...)
	for i := range recs {
		payload, err := appendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		gap = appendFrame(gap, payload)
	}
	if _, _, _, err := Open(Options{Dir: mkdir(gap)}); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("seq gap err = %v, want ErrLogCorrupt", err)
	}

	// A log whose first record does not connect to the (absent) snapshot.
	orphan := append([]byte(nil), logMagic...)
	r := sampleRecords(1)[0]
	r.Seq = 7
	payload, _ := appendRecord(nil, &r)
	orphan = appendFrame(orphan, payload)
	if _, _, _, err := Open(Options{Dir: mkdir(orphan)}); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("disconnected first seq err = %v, want ErrLogCorrupt", err)
	}

	// A snapshot is published whole by rename, so nothing short of the whole
	// file reads, and nothing reads as a shorter State: the body cut at every
	// offset (frame boundaries included), a byte flipped in any frame,
	// records not numbered from 1, stray bytes after the last frame, and the
	// one-frame version 1 each refuse.
	st := sampleState()
	body, err := appendState(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	whole := append(append([]byte(nil), snapMagic...), body...)
	snapDir := t.TempDir()
	refuses := func(what string, blob []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(snapDir, "snapshot"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, _, err := Open(Options{Dir: snapDir, Fsync: FsyncNone})
		if l != nil {
			l.Close()
		}
		if !errors.Is(err, nperr.ErrLogCorrupt) || got != nil {
			t.Fatalf("%s: Open = state %+v, err %v; want no state and ErrLogCorrupt", what, got, err)
		}
	}
	for cut := 0; cut < len(whole); cut++ {
		refuses(fmt.Sprintf("snapshot cut at byte %d", cut), whole[:cut])
	}
	for off := 0; off < len(whole); off++ {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 0xff
		refuses(fmt.Sprintf("snapshot with byte %d flipped", off), flipped)
	}
	renumbered := sampleState()
	for i := range renumbered.Records {
		renumbered.Records[i].Seq++
	}
	late, err := appendState(append([]byte(nil), snapMagic...), &renumbered)
	if err != nil {
		t.Fatal(err)
	}
	refuses("snapshot records numbered from 2", late)
	refuses("snapshot with trailing bytes", append(append([]byte(nil), whole...), "trailing garbage"...))
	refuses("version 1 snapshot", append([]byte("NPSNAP\x00\x01"), body...))

	// Zero-length and oversized frame lengths are torn tails, not errors.
	zero := append([]byte(nil), logMagic...)
	zero = append(zero, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, _, got, err := Open(Options{Dir: mkdir(zero), Fsync: FsyncNone}); err != nil || len(got) != 0 {
		t.Errorf("zero-length frame: err %v, %d records; want clean empty recovery", err, len(got))
	}
	over := append([]byte(nil), logMagic...)
	over = append(over, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	if _, _, got, err := Open(Options{Dir: mkdir(over), Fsync: FsyncNone}); err != nil || len(got) != 0 {
		t.Errorf("oversized frame: err %v, %d records; want clean empty recovery", err, len(got))
	}
}

// sampleState is a snapshot of two members, m1 suspect and drained, and one
// tenant on m0, as Fleet.Checkpoint writes one: a health record per member
// (and a drain-start after a drained one's), a place per tenant, numbered
// from 1.
func sampleState() fleet.State {
	return fleet.State{
		Seq: 6, NextID: 4, Admitted: 3, Released: 1, MigrationSeconds: 1.5,
		Records: []fleet.Record{
			{Seq: 1, Type: fleet.RecHealth, ID: -1, Backend: "m0", FromHealth: fleet.Healthy, ToHealth: fleet.Healthy},
			{Seq: 2, Type: fleet.RecHealth, ID: -1, Backend: "m1", FromHealth: fleet.Healthy, ToHealth: fleet.Suspect, Misses: 2},
			{Seq: 3, Type: fleet.RecDrainStart, ID: -1, Backend: "m1"},
			{Seq: 4, Type: fleet.RecPlace, ID: 0, Backend: "m0", EngineID: 0, Workload: "swaptions", VCPUs: 16,
				ClassID: 3, Nodes: topology.NodeSet(0b11), BasePerf: 1.5, ProbePerf: 0.5},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(6)
	for _, r := range recs {
		l.Append(r)
	}
	if err := l.Commit(6); err != nil {
		t.Fatal(err)
	}
	st := sampleState()
	if err := l.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	// The log was truncated: post-snapshot appends form the new tail.
	tail := fleet.Record{Seq: 7, Type: fleet.RecReject, ID: -1, Workload: "w", VCPUs: 2}
	l.Append(tail)
	if err := l.Commit(7); err != nil {
		t.Fatal(err)
	}
	if h := l.Head(); h.SnapshotSeq != 6 || h.Seq != 7 {
		t.Fatalf("head after snapshot = %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, gotSt, gotRecs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if gotSt == nil || !reflect.DeepEqual(*gotSt, st) {
		t.Fatalf("snapshot diverged:\n got %+v\nwant %+v", gotSt, st)
	}
	if len(gotRecs) != 1 || !reflect.DeepEqual(gotRecs[0], tail) {
		t.Fatalf("post-snapshot tail diverged: %+v", gotRecs)
	}

	// A mangled snapshot refuses recovery.
	snapPath := filepath.Join(dir, "snapshot")
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(snapPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone}); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Fatalf("mangled snapshot err = %v, want ErrLogCorrupt", err)
	}
}

// TestLargeSnapshotReopens: a snapshot is a frame per record, so its size
// has no cap. 16 000 tenants on 1 024 members, some drained, suspect or dead
// — 2.5 MB of records, more than maxFrame allows one frame — checkpoint,
// close and reopen to the State they were.
func TestLargeSnapshotReopens(t *testing.T) {
	const members, tenants = 1024, 16000
	st := fleet.State{Seq: 40000, NextID: tenants + 7, Admitted: 30000, Rejected: 12,
		Released: 14000, Moves: 900, Failovers: 3, FailedOver: 40, MigrationSeconds: 1234.5}
	name := func(i int) string { return fmt.Sprintf("machine-%04d", i) }
	for i := 0; i < members; i++ {
		r := fleet.Record{Type: fleet.RecHealth, ID: -1, Backend: name(i), FromHealth: fleet.Healthy, ToHealth: fleet.Healthy}
		switch {
		case i%97 == 5:
			r.ToHealth, r.Misses = fleet.Dead, 4
		case i%13 == 2:
			r.ToHealth, r.Misses = fleet.Suspect, 2
		case i%11 == 1:
			r.Misses = 1
		}
		st.Records = append(st.Records, r)
		if i%37 == 3 {
			st.Records = append(st.Records, fleet.Record{Type: fleet.RecDrainStart, ID: -1, Backend: name(i)})
		}
	}
	workloads := []string{"swaptions", "WTbtree", "canneal", "postgres-tpcc"}
	for id := 0; id < tenants; id++ {
		st.Records = append(st.Records, fleet.Record{Type: fleet.RecPlace, ID: id, Backend: name(id % members),
			EngineID: id / members, Workload: workloads[id%len(workloads)], VCPUs: 4 << (id % 3),
			ClassID: id % 7, Nodes: topology.NodeSet(1 << (id % 8)), BasePerf: float64(id) / 3, ProbePerf: float64(id%101) / 7})
	}
	for i := range st.Records {
		st.Records[i].Seq = uint64(i + 1)
	}

	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("reopening a %d-tenant snapshot: %v", tenants, err)
	}
	defer l.Close()
	if got == nil || !reflect.DeepEqual(*got, st) || len(recs) != 0 {
		t.Fatalf("reopened %d-tenant snapshot diverged (%d records of %d, %d in the log)", tenants, len(got.Records), len(st.Records), len(recs))
	}
}

func TestCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(fleet.Record{Seq: 1, Type: fleet.RecReject, ID: -1})
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	l.Append(fleet.Record{Seq: 2, Type: fleet.RecReject, ID: -1})
	if err := l.Commit(2); !errors.Is(err, nperr.ErrLogClosed) {
		t.Fatalf("Commit after Close err = %v, want ErrLogClosed", err)
	}
	if err := l.Snapshot(fleet.State{Seq: 2}); !errors.Is(err, nperr.ErrLogClosed) {
		t.Fatalf("Snapshot after Close err = %v, want ErrLogClosed", err)
	}
	// The record appended before Close survived; the post-Close one did not.
	_, _, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
}

// TestMappedLogSurvivesAbandon is what kill -9 leaves of a mapped log: the
// file copied while the Log is still open, zero tail and all. Both phases,
// before and after a Snapshot, commit enough to cross a reservation, so a
// zero fill over live frames or a mapping kept across the Snapshot's
// truncation loses records here. A clean Close then leaves the frames and
// nothing else.
func TestMappedLogSurvivesAbandon(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Every frame is at least frameHeader+minRecordPayload bytes: a phase
	// holds 1.5 chunks of frames or more.
	perPhase := 3 * reserveChunk / (2 * (frameHeader + minRecordPayload))
	recs := sampleRecords(2 * perPhase)
	commit := func(rs []fleet.Record) {
		for i, r := range rs {
			l.Append(r)
			if i%64 == 63 || i == len(rs)-1 {
				if err := l.Commit(r.Seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(l.mapped) <= reserveChunk {
			t.Fatalf("%d records left a %d-byte mapping: no second reservation", len(rs), len(l.mapped))
		}
	}
	commit(recs[:perPhase])
	if err := l.Snapshot(fleet.State{Seq: uint64(perPhase)}); err != nil {
		t.Fatal(err)
	}
	tail := recs[perPhase:]
	commit(tail)

	crash := t.TempDir()
	for _, name := range []string{"log", "snapshot"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "log" && len(blob) <= l.off {
			t.Fatalf("open log is %d bytes for %d of frames: no zero tail to recover past", len(blob), l.off)
		}
		if err := os.WriteFile(filepath.Join(crash, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rl, st, got, err := Open(Options{Dir: crash, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if st == nil || st.Seq != uint64(perPhase) {
		t.Fatalf("recovered snapshot %+v, want one at seq %d", st, perPhase)
	}
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("recovered %d records, want the %d committed after the snapshot", len(got), len(tail))
	}
	if fi, err := os.Stat(filepath.Join(crash, "log")); err != nil || fi.Size() != int64(l.off) {
		t.Fatalf("recovered log: %v, %v; want %d bytes, its valid length", fi.Size(), err, l.off)
	}

	want := append([]byte(nil), logMagic...)
	for i := range tail {
		payload, err := appendRecord(nil, &tail[i])
		if err != nil {
			t.Fatal(err)
		}
		want = appendFrame(want, payload)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if blob, err := os.ReadFile(filepath.Join(dir, "log")); err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("closed log is %d bytes (%v), want the %d bytes of its magic and frames", len(blob), err, len(want))
	}
}

// TestReserveErrorIsSticky: a reservation that fails — here the handle
// cannot write — latches as a failed write does. That Commit and every
// later one return the error, Close still cuts the file to its valid
// frames, and a reopen recovers everything committed before the failure.
func TestReserveErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(2 * reserveChunk / (frameHeader + minRecordPayload))
	committed := 0
	for _, r := range recs {
		l.Append(r)
		if l.mapped != nil && l.off+len(l.buf) > len(l.mapped) {
			break // this record's commit must reserve a second chunk
		}
		if err := l.Commit(r.Seq); err != nil {
			t.Fatal(err)
		}
		committed++
	}
	if committed == len(recs) {
		t.Fatal("no commit needed a second chunk")
	}

	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := l.f
	l.f = ro
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	failed := l.Commit(recs[committed].Seq)
	if failed == nil {
		t.Fatal("a reservation through a read-only handle succeeded")
	}
	l.Append(recs[committed+1])
	if err := l.Commit(recs[committed+1].Seq); !errors.Is(err, failed) {
		t.Fatalf("commit after the failure = %v, want the latched %v", err, failed)
	}
	if err := l.Close(); !errors.Is(err, failed) {
		t.Fatalf("Close = %v, want the latched %v", err, failed)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(l.off) {
		t.Fatalf("closed log: %v, %v; want %d bytes, its valid length", fi.Size(), err, l.off)
	}
	rl, _, got, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if !reflect.DeepEqual(got, recs[:committed]) {
		t.Fatalf("recovered %d records, want the %d committed before the failure", len(got), committed)
	}
}

func TestFsyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(fleet.Record{Seq: 1, Type: fleet.RecReject, ID: -1})
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
}

// TestFsyncIntervalConcurrent runs the FsyncInterval flusher at 1 ms beside
// an appender that commits every record and checkpoints every 64, with
// Append, Snapshot and Close serialized by a mutex as the fleet's lock
// serializes them, and Commit outside it, and closes the log mid-stream. Under -race it checks that the
// flusher's unlocked fsync shares no state with them unguarded; the log it
// leaves must reopen to the last snapshot plus every record committed after
// it, and the first Commit after Close must fail with ErrLogClosed.
func TestFsyncIntervalConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var fleetMu sync.Mutex
	var committed, snapped uint64
	done := make(chan error, 1)
	go func() {
		for seq := uint64(1); ; seq++ {
			fleetMu.Lock()
			l.Append(fleet.Record{Seq: seq, Type: fleet.RecReject, ID: -1})
			var serr error
			if seq%64 == 0 {
				if serr = l.Snapshot(fleet.State{Seq: seq}); serr == nil {
					snapped = seq
				}
			}
			fleetMu.Unlock()
			if err := l.Commit(seq); err != nil {
				if !errors.Is(err, nperr.ErrLogClosed) {
					done <- fmt.Errorf("commit %d: %w", seq, err)
					return
				}
				done <- nil
				return
			}
			if serr != nil {
				done <- fmt.Errorf("snapshot at %d: %w", seq, serr)
				return
			}
			committed = seq
			if seq%16 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	fleetMu.Lock()
	err = l.Close()
	fleetMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snapped == 0 {
		t.Fatalf("no snapshot in %d committed records", committed)
	}
	l2, st, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st == nil || st.Seq != snapped {
		t.Fatalf("reopened snapshot %+v, want seq %d", st, snapped)
	}
	// Close writes what was appended before it, so the record whose Commit
	// lost to Close may be there too.
	if want := int(committed - snapped); len(recs) != want && len(recs) != want+1 {
		t.Fatalf("reopened %d records above snapshot %d, want %d or %d (committed through %d)",
			len(recs), snapped, want, want+1, committed)
	}
	for i, r := range recs {
		if r.Seq != snapped+uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, snapped+uint64(i)+1)
		}
	}
}

func FuzzScanFrames(f *testing.F) {
	valid := []byte{}
	for _, r := range sampleRecords(3) {
		payload, _ := appendRecord(nil, &r)
		valid = appendFrame(valid, payload)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	mangled := append([]byte(nil), valid...)
	mangled[9] ^= 0x10
	f.Add(mangled)
	// CRC-valid frames the fixed layout must refuse or accept exactly as the
	// field walk does, each after the three valid ones: a string length that
	// overruns the payload, a tail one byte short and one byte long.
	next := sampleRecords(4)[3]
	whole, _ := appendRecord(nil, &next)
	overrun := append(append([]byte(nil), whole[:recordHead]...), 200, 'x', 'y')
	for _, payload := range [][]byte{overrun, whole[:len(whole)-1], append(whole[:len(whole):len(whole)], 0)} {
		f.Add(appendFrame(append([]byte(nil), valid...), payload))
	}
	// 255-byte names, the longest a record carries, in all three strings.
	long := sampleRecords(3)[2]
	long.Backend = string(bytes.Repeat([]byte{'b'}, 255))
	long.Dest = string(bytes.Repeat([]byte{'d'}, 255))
	long.Workload = string(bytes.Repeat([]byte{'w'}, 255))
	payload, err := appendRecord(nil, &long)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFrame(nil, payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; must either return a clean prefix or refuse
		// with ErrLogCorrupt; the prefix length must stay within bounds.
		recs, n, err := scanFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("prefix length %d out of [0,%d]", n, len(data))
		}
		if err != nil && !errors.Is(err, nperr.ErrLogCorrupt) {
			t.Fatalf("scan error %v does not wrap ErrLogCorrupt", err)
		}
		// Whatever decoded must round-trip: the valid prefix is real data.
		for i := range recs {
			payload, err := appendRecord(nil, &recs[i])
			if err != nil {
				// Fuzz can craft CRC-colliding frames whose decoded record
				// has oversized strings; they re-encode with an error but
				// must not have crashed the scan.
				continue
			}
			back, err := readRecord(payload)
			if err != nil || !reflect.DeepEqual(back, recs[i]) {
				t.Fatalf("record %d does not round-trip: %v", i, err)
			}
		}
		// The two-pass, fixed-layout, interning scan is the naive one: same
		// records, same valid prefix, same refusal.
		wantRecs, wantN, wantErr := scanFramesNaive(data)
		if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("scan = (%d bytes, %v), naive scan = (%d bytes, %v)", n, err, wantN, wantErr)
		}
		if len(recs) != len(wantRecs) || (len(recs) > 0 && !reflect.DeepEqual(recs, wantRecs)) {
			t.Fatalf("scan decoded %d records %+v, naive scan %d %+v", len(recs), recs, len(wantRecs), wantRecs)
		}
		assertNoAlias(t, data, recs)
	})
}

// FuzzReadSnapshot: on any bytes after the magic, decodeState refuses with
// ErrLogCorrupt or returns a State that re-encodes and decodes to itself.
// States are compared by their encodings, which carry every field's bits (a
// NaN equals itself there).
func FuzzReadSnapshot(f *testing.F) {
	st := sampleState()
	body, err := appendState(nil, &st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte{})
	f.Add(body[:frameHeader+stateHead])
	f.Add(body[:len(body)-1])
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)-3] ^= 0xff
	f.Add(flipped)
	f.Add(append(append([]byte(nil), body...), 0, 0, 0, 0))
	for i := range st.Records {
		st.Records[i].Seq++
	}
	late, err := appendState(nil, &st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(late)
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeState(body)
		if err != nil {
			if !errors.Is(err, nperr.ErrLogCorrupt) || st != nil {
				t.Fatalf("decodeState = %v, %v; want no state and ErrLogCorrupt", st, err)
			}
			return
		}
		enc, err := appendState(nil, st)
		if err != nil {
			t.Fatalf("a decoded state does not encode: %v", err)
		}
		back, err := decodeState(enc)
		if err != nil {
			t.Fatalf("a decoded state re-encodes to bytes that do not decode: %v", err)
		}
		again, err := appendState(nil, back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("state does not round-trip (%v):\n got %+v\nwant %+v", err, back, st)
		}
	})
}

// scanFramesNaive is scanFrames without its economies — one pass, one frame
// at a time through the field walk readRecord, every string its own copy,
// the slice grown by append — and the reference FuzzScanFrames holds it to.
func scanFramesNaive(buf []byte) ([]fleet.Record, int, error) {
	var recs []fleet.Record
	off := 0
	for {
		if off+frameHeader > len(buf) {
			return recs, off, nil
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n == 0 || n > maxFrame || off+frameHeader+n > len(buf) {
			return recs, off, nil
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:]) {
			return recs, off, nil
		}
		r, err := readRecord(payload)
		if err != nil {
			return recs, off, fmt.Errorf("wal: frame at byte %d: %w", off, err)
		}
		if len(recs) > 0 && r.Seq != recs[len(recs)-1].Seq+1 {
			return recs, off, fmt.Errorf("wal: frame at byte %d: seq %d follows %d: %w",
				off, r.Seq, recs[len(recs)-1].Seq, nperr.ErrLogCorrupt)
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
}

// reader is the field walk, one bounds-checked read at a time; failed reads
// latch so a decode is one pass plus a single error check at the end.
// Strings are copies, never views of buf.
type reader struct {
	buf []byte
	off int
	bad bool
}

func (r *reader) uint() uint64 {
	if r.bad || r.off+8 > len(r.buf) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) int() int       { return int(int64(r.uint())) }
func (r *reader) float() float64 { return math.Float64frombits(r.uint()) }
func (r *reader) byte() byte {
	if r.bad || r.off >= len(r.buf) {
		r.bad = true
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) string() string {
	n := int(r.byte())
	if r.bad || r.off+n > len(r.buf) {
		r.bad = true
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// done reports whether the walk consumed the payload exactly.
func (r *reader) done() bool { return !r.bad && r.off == len(r.buf) }

// readRecord decodes one record payload a field at a time, each read
// checking its own bounds: the independent decoder decodeRecordInto is held
// to.
func readRecord(payload []byte) (fleet.Record, error) {
	rd := reader{buf: payload}
	var r fleet.Record
	r.Seq = rd.uint()
	r.Type = fleet.RecordType(rd.byte())
	r.ID = rd.int()
	r.Backend = rd.string()
	r.Dest = rd.string()
	r.Workload = rd.string()
	r.VCPUs = rd.int()
	r.EngineID = rd.int()
	r.ClassID = rd.int()
	r.Nodes = topology.NodeSet(rd.uint())
	r.BasePerf = rd.float()
	r.ProbePerf = rd.float()
	r.FromHealth = fleet.Health(rd.byte())
	r.ToHealth = fleet.Health(rd.byte())
	r.Misses = rd.int()
	r.Moves = rd.int()
	r.Intra = rd.int()
	r.Examined = rd.int()
	r.Stranded = rd.int()
	r.Fenced = rd.int()
	r.Failover = rd.byte() != 0
	r.Seconds = rd.float()
	if !rd.done() {
		return fleet.Record{}, fmt.Errorf("wal: record payload does not parse: %w", nperr.ErrLogCorrupt)
	}
	return r, nil
}

// assertNoAlias fails if any string of recs points into buf: records
// outlive the file buffer they were decoded from and must not pin it.
func assertNoAlias(t *testing.T, buf []byte, recs []fleet.Record) {
	t.Helper()
	if len(buf) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	hi := lo + uintptr(len(buf))
	for i := range recs {
		for _, s := range []string{recs[i].Backend, recs[i].Dest, recs[i].Workload} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
				t.Fatalf("record %d: string %q is a view of the scanned buffer", i, s)
			}
		}
	}
}

// TestScanCopiesStrings: a scanned record survives its buffer. The strings
// are interned — equal names share one copy — but that copy is never the
// buffer's bytes, so overwriting the buffer changes no record.
func TestScanCopiesStrings(t *testing.T) {
	want := sampleRecords(64)
	var buf []byte
	for i := range want {
		payload, err := appendRecord(nil, &want[i])
		if err != nil {
			t.Fatal(err)
		}
		buf = appendFrame(buf, payload)
	}
	recs, n, err := scanFrames(buf)
	if err != nil || n != len(buf) || len(recs) != len(want) {
		t.Fatalf("scan = %d records, %d of %d bytes, %v", len(recs), n, len(buf), err)
	}
	assertNoAlias(t, buf, recs)
	if unsafe.StringData(recs[0].Backend) != unsafe.StringData(recs[4].Backend) {
		t.Error("equal backend names were not interned to one copy")
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatal("records changed when the scanned buffer was overwritten")
	}
}

// TestOpenAllocCeiling: recovery's scan allocates for what is distinct in
// the log — one record slice, one copy of each name — and neither for the
// file's bytes nor per record. The log is the one a kill -9 leaves: 10 000
// records naming three backends and two workloads, then the 1 MiB zero tail
// of the last reservation. Open+Close measures 19 allocations and 2.7 KB
// beside the slice. A heap copy of the file, or a slice sized from the file's
// length (3.2 MB), breaks the byte bound; a slice regrown by append makes 37
// allocations, a string per record 15 012.
func TestOpenAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const records = 10000
	dir := t.TempDir()
	writeLog(t, dir, sampleRecords(records))
	path := filepath.Join(dir, "log")
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := append(valid, make([]byte, reserveChunk)...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs, bytes uint64
	for run := 0; run < 4; run++ { // the first warms what Open keeps process-wide
		// Open truncates the tail: each run gets it back.
		if err := os.WriteFile(path, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, _, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
		if err != nil || len(recs) != records {
			t.Fatalf("Open = %d records, %v", len(recs), err)
		}
		l.Close()
		runtime.ReadMemStats(&after)
		if run > 0 {
			mallocs = max(mallocs, after.Mallocs-before.Mallocs)
			bytes = max(bytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("Open+Close: %d allocations, %d bytes", mallocs, bytes)
	if mallocs > 19 {
		t.Errorf("Open+Close of a %d-record log allocates %d times, want <= 19", records, mallocs)
	}
	if ceiling := uint64(records*unsafe.Sizeof(fleet.Record{})) + 64<<10; bytes > ceiling {
		t.Errorf("Open+Close of a %d-record log with a %d-byte zero tail allocates %d bytes, want <= %d (the record slice + 64 KiB)",
			records, reserveChunk, bytes, ceiling)
	}
}

// TestPolicyByName: every fsync policy resolves from the name it prints, and
// no other name resolves.
func TestPolicyByName(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		if got, ok := PolicyByName(p.String()); !ok || got != p {
			t.Errorf("PolicyByName(%q) = %v, %v; want %v, true", p.String(), got, ok, p)
		}
	}
	for _, name := range []string{"", "Always", "fsync(3)", "sometimes"} {
		if got, ok := PolicyByName(name); ok {
			t.Errorf("PolicyByName(%q) = %v, true; want no policy", name, got)
		}
	}
}
