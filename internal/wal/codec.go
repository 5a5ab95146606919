//go:build unix

// Binary codec for write-ahead frames: a fixed little-endian field walk
// per record, wrapped in a CRC32C-checked, length-prefixed frame.
//
// Frame layout:
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// The CRC is Castagnoli (the polynomial with hardware support on amd64 and
// arm64), computed over the payload only — the length field is validated
// structurally instead: a length of zero, or one beyond the 1 MiB frame
// cap, can never have been written by this encoder, so it marks the end of
// the valid prefix just like a short read does. Integers are encoded as
// u64 two's complement, floats as IEEE-754 bits, strings with a u8 length
// (backend names and workload names are short by construction — the
// encoder rejects longer ones at append time, where the error is a bug,
// not data loss).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"repro/internal/fleet"
	"repro/internal/nperr"
	"repro/internal/topology"
)

// logMagic / snapMagic head the two file kinds; the trailing byte versions
// the format; a version 1 snapshot is not read.
var (
	logMagic  = []byte("NPWAL\x00\x00\x01")
	snapMagic = []byte("NPSNAP\x00\x02")
)

const (
	// frameHeader is the fixed per-frame overhead: u32 length + u32 CRC.
	frameHeader = 8
	// maxFrame caps a payload's encoded size. A frame holds one record
	// (~150 bytes, at most 900) or a snapshot's fixed head, however large
	// the fleet: 1 MiB bounds both with orders of magnitude to spare, so any
	// larger length field is torn garbage.
	maxFrame = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendUint / appendInt / appendFloat / appendString grow dst in the
// fixed walk the decoder mirrors.
func appendUint(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendInt(dst []byte, v int) []byte {
	return appendUint(dst, uint64(int64(v)))
}

func appendFloat(dst []byte, v float64) []byte {
	return appendUint(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return dst, fmt.Errorf("wal: string field %d bytes long (max 255)", len(s))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

// appendRecord encodes r onto dst (payload only, no frame header).
//
//numalint:noalloc
func appendRecord(dst []byte, r *fleet.Record) ([]byte, error) {
	var err error
	dst = appendUint(dst, r.Seq)
	dst = append(dst, byte(r.Type))
	dst = appendInt(dst, r.ID)
	if dst, err = appendString(dst, r.Backend); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, r.Dest); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, r.Workload); err != nil {
		return dst, err
	}
	dst = appendInt(dst, r.VCPUs)
	dst = appendInt(dst, r.EngineID)
	dst = appendInt(dst, r.ClassID)
	dst = appendUint(dst, uint64(r.Nodes))
	dst = appendFloat(dst, r.BasePerf)
	dst = appendFloat(dst, r.ProbePerf)
	dst = append(dst, byte(r.FromHealth), byte(r.ToHealth))
	dst = appendInt(dst, r.Misses)
	dst = appendInt(dst, r.Moves)
	dst = appendInt(dst, r.Intra)
	dst = appendInt(dst, r.Examined)
	dst = appendInt(dst, r.Stranded)
	dst = appendInt(dst, r.Fenced)
	if r.Failover {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendFloat(dst, r.Seconds)
	return dst, nil
}

// A record payload is a fixed head, three length-prefixed strings and a
// fixed tail, in appendRecord's order.
const (
	recordHead = 8 + 1 + 8 // Seq, Type, ID
	// recordTail: VCPUs, EngineID, ClassID, Nodes, BasePerf, ProbePerf;
	// FromHealth, ToHealth; Misses, Moves, Intra, Examined, Stranded,
	// Fenced; Failover; Seconds.
	recordTail = 6*8 + 2 + 6*8 + 1 + 8
)

// decodeRecordInto decodes one record payload into *r, writing every field,
// and reports whether p parses exactly. The strings go through in; the tail
// is read at fixed offsets after one length check. A payload that passed its
// CRC but does not parse was written wrong, not damaged in flight — that is
// corruption, not a torn tail.
func decodeRecordInto(r *fleet.Record, p []byte, in *interner) bool {
	if len(p) < recordHead {
		return false
	}
	le := binary.LittleEndian
	r.Seq = le.Uint64(p[0:8])
	r.Type = fleet.RecordType(p[8])
	r.ID = int(int64(le.Uint64(p[9:17])))
	p = p[recordHead:]
	var ok bool
	if r.Backend, p, ok = in.take(p); !ok {
		return false
	}
	if r.Dest, p, ok = in.take(p); !ok {
		return false
	}
	if r.Workload, p, ok = in.take(p); !ok {
		return false
	}
	if len(p) != recordTail {
		return false
	}
	t := (*[recordTail]byte)(p)
	r.VCPUs = int(int64(le.Uint64(t[0:])))
	r.EngineID = int(int64(le.Uint64(t[8:])))
	r.ClassID = int(int64(le.Uint64(t[16:])))
	r.Nodes = topology.NodeSet(le.Uint64(t[24:]))
	r.BasePerf = math.Float64frombits(le.Uint64(t[32:]))
	r.ProbePerf = math.Float64frombits(le.Uint64(t[40:]))
	r.FromHealth = fleet.Health(t[48])
	r.ToHealth = fleet.Health(t[49])
	r.Misses = int(int64(le.Uint64(t[50:])))
	r.Moves = int(int64(le.Uint64(t[58:])))
	r.Intra = int(int64(le.Uint64(t[66:])))
	r.Examined = int(int64(le.Uint64(t[74:])))
	r.Stranded = int(int64(le.Uint64(t[82:])))
	r.Fenced = int(int64(le.Uint64(t[90:])))
	r.Failover = t[98] != 0
	r.Seconds = math.Float64frombits(le.Uint64(t[99:]))
	return true
}

// interner keeps one copy of each distinct string a scan reads: a log names
// a few dozen backends and workloads tens of thousands of times. A
// direct-mapped cache of internSlots entries, indexed by a hash of the name's
// bytes, answers a repeat without a map probe; the map holds every copy.
// Copies, never views of the scanned bytes.
type interner struct {
	cache [internSlots]string
	all   map[string]string
}

// internSlots sizes interner's cache: numabench's restart_replay log names
// 82 distinct strings, and 256 slots answer 90 % of its 80 088 reads (64
// slots answer 66 %).
const (
	internBits  = 8
	internSlots = 1 << internBits
)

// take reads one u8-length-prefixed string off the front of p and returns
// it with the rest of p, or false if p is too short to hold it.
func (in *interner) take(p []byte) (string, []byte, bool) {
	if len(p) == 0 {
		return "", p, false
	}
	n := int(p[0])
	if 1+n > len(p) {
		return "", p, false
	}
	if n == 0 {
		return "", p[1:], true
	}
	return in.string(p[1 : 1+n]), p[1+n:], true
}

// string returns the one copy of b, which is not empty.
func (in *interner) string(b []byte) string {
	// The hash: the name's first and last eight bytes, or all of a shorter
	// one, and its length, scattered by a Fibonacci multiply.
	var x uint64
	if len(b) >= 8 {
		x = binary.LittleEndian.Uint64(b) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(b[len(b)-8:]), 29)
	} else {
		for _, c := range b {
			x = x<<8 | uint64(c)
		}
	}
	slot := &in.cache[(x^uint64(len(b)))*0x9E3779B97F4A7C15>>(64-internBits)]
	if *slot == string(b) { // the comparison does not allocate
		return *slot
	}
	s, ok := in.all[string(b)] // nor does the lookup
	if !ok {
		if in.all == nil {
			in.all = map[string]string{}
		}
		s = string(b)
		in.all[s] = s
	}
	*slot = s
	return s
}

// A snapshot body (the file after snapMagic) is one head frame, then one
// frame per record of the State, numbered from 1. The head holds the State's
// fixed fields — Seq, NextID, the six integer counters, MigrationSeconds —
// and the number of record frames that follow, so a body cut at a frame
// boundary is as short as any other cut.
const stateHead = 10 * 8

// appendState encodes st as a snapshot body onto dst.
func appendState(dst []byte, st *fleet.State) ([]byte, error) {
	head := make([]byte, 0, stateHead)
	head = appendUint(head, st.Seq)
	for _, v := range [...]int64{int64(st.NextID), st.Admitted, st.Rejected, st.Released, st.Moves, st.Failovers, st.FailedOver} {
		head = appendUint(head, uint64(v))
	}
	head = appendFloat(head, st.MigrationSeconds)
	head = appendInt(head, len(st.Records))
	dst = appendFrame(dst, head)
	var payload []byte
	for i := range st.Records {
		var err error
		if payload, err = appendRecord(payload[:0], &st.Records[i]); err != nil {
			return dst, err
		}
		dst = appendFrame(dst, payload)
	}
	return dst, nil
}

// decodeState decodes a snapshot body through the log's own frame scan. The
// file is published whole by rename, so what a log scan would call a torn
// tail is corruption here: the head frame must verify, and the record frames
// must fill the body exactly, as many as the head counts, numbered from 1.
func decodeState(body []byte) (*fleet.State, error) {
	n, ok := frameAt(body, 0)
	if !ok || n != stateHead || crc32.Checksum(body[frameHeader:frameHeader+n], castagnoli) != binary.LittleEndian.Uint32(body[4:]) {
		return nil, fmt.Errorf("wal: snapshot head frame does not parse: %w", nperr.ErrLogCorrupt)
	}
	h := (*[stateHead]byte)(body[frameHeader:])
	field := func(i int) int64 { return int64(binary.LittleEndian.Uint64(h[8*i:])) }
	st := &fleet.State{
		Seq: uint64(field(0)), NextID: int(field(1)),
		Admitted: field(2), Rejected: field(3), Released: field(4), Moves: field(5),
		Failovers: field(6), FailedOver: field(7),
		MigrationSeconds: math.Float64frombits(uint64(field(8))),
	}
	recs, m, err := scanFrames(body[frameHeader+stateHead:])
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	if frameHeader+stateHead+m != len(body) || int64(len(recs)) != field(9) || (len(recs) > 0 && recs[0].Seq != 1) {
		return nil, fmt.Errorf("wal: snapshot body is not its %d records numbered from 1: %w", field(9), nperr.ErrLogCorrupt)
	}
	st.Records = recs
	return st, nil
}

// appendFrame wraps payload in the length+CRC header onto dst.
//
//numalint:noalloc
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// scanFrames walks buf (the log file contents after the magic) and returns
// the decoded records of the longest valid prefix plus that prefix's byte
// length. A short header, a short payload, an impossible length, or a CRC
// mismatch ends the scan — everything from there on is a torn tail the
// caller truncates. A frame whose CRC verifies but whose payload does not
// decode is corruption and fails with nperr.ErrLogCorrupt (wrapped), as
// does a sequence that does not continue its predecessor's.
//
// A first pass reads only the frame headers, to size the record slice
// exactly (a zero tail ends it at once); the second checks each frame's CRC
// and decodes its payload straight into its slot. The scan allocates the
// slice and one copy of each distinct string; no record keeps buf alive.
func scanFrames(buf []byte) ([]fleet.Record, int, error) {
	count := 0
	for off := 0; ; count++ {
		n, ok := frameAt(buf, off)
		if !ok {
			break
		}
		off += frameHeader + n
	}
	recs := make([]fleet.Record, count)
	var in interner
	off := 0
	for i := range recs {
		n, _ := frameAt(buf, off)
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:]) {
			return recs[:i], off, nil // damaged frame: treat as tail
		}
		r := &recs[i]
		if !decodeRecordInto(r, payload, &in) {
			return recs[:i], off, fmt.Errorf("wal: frame at byte %d: wal: record payload does not parse: %w", off, nperr.ErrLogCorrupt)
		}
		if i > 0 && r.Seq != recs[i-1].Seq+1 {
			return recs[:i], off, fmt.Errorf("wal: frame at byte %d: seq %d follows %d: %w",
				off, r.Seq, recs[i-1].Seq, nperr.ErrLogCorrupt)
		}
		off += frameHeader + n
	}
	return recs, off, nil
}

// frameAt returns the payload length of the frame at buf[off:], or false
// where no frame can start: a short header, an impossible length (zero, or
// beyond maxFrame) or a short payload — the torn or clean end.
func frameAt(buf []byte, off int) (int, bool) {
	if off+frameHeader > len(buf) {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	if n == 0 || n > maxFrame || off+frameHeader+n > len(buf) {
		return 0, false
	}
	return n, true
}
