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

	"repro/internal/fleet"
	"repro/internal/nperr"
	"repro/internal/topology"
)

// logMagic / snapMagic head the two file kinds; the trailing byte versions
// the format.
var (
	logMagic  = []byte("NPWAL\x00\x00\x01")
	snapMagic = []byte("NPSNAP\x00\x01")
)

const (
	// frameHeader is the fixed per-frame overhead: u32 length + u32 CRC.
	frameHeader = 8
	// minRecordPayload is a record's encoding with its three strings empty:
	// 15 u64 fields, 4 single bytes and 3 length bytes. No record frame is
	// shorter than frameHeader+minRecordPayload, which bounds how many a
	// buffer can hold.
	minRecordPayload = 15*8 + 4 + 3
	// maxFrame caps a payload's encoded size. Records are ~150 bytes and
	// snapshots grow with tenant count; 1 MiB bounds both with orders of
	// magnitude to spare, so any larger length field is torn garbage.
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

// reader consumes a payload in the same walk; failed reads latch so a
// decode is one pass plus a single error check at the end.
type reader struct {
	buf []byte
	off int
	bad bool
	// intern, when set, holds the one copy of each distinct string read so
	// far: a log names a few dozen backends and workloads tens of thousands
	// of times. Entries are copies, never views of buf.
	intern map[string]string
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
	b := r.buf[r.off : r.off+n]
	r.off += n
	if r.intern == nil || n == 0 {
		return string(b)
	}
	s, ok := r.intern[string(b)] // the lookup does not allocate the key
	if !ok {
		s = string(b)
		r.intern[s] = s
	}
	return s
}

// done reports whether the walk consumed the payload exactly.
func (r *reader) done() bool { return !r.bad && r.off == len(r.buf) }

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

// decodeRecord decodes one record payload. A payload that passed its CRC
// but does not parse was written wrong, not damaged in flight — that is
// corruption, not a torn tail.
func decodeRecord(payload []byte) (fleet.Record, error) {
	rd := reader{buf: payload}
	return rd.record()
}

// record decodes the payload rd holds, through rd's intern table if it has
// one.
func (rd *reader) record() (fleet.Record, error) {
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

// appendState encodes a snapshot State payload.
func appendState(dst []byte, st *fleet.State) ([]byte, error) {
	var err error
	dst = appendUint(dst, st.Seq)
	dst = appendInt(dst, st.NextID)
	dst = appendInt(dst, int(st.Admitted))
	dst = appendInt(dst, int(st.Rejected))
	dst = appendInt(dst, int(st.Released))
	dst = appendInt(dst, int(st.Moves))
	dst = appendInt(dst, int(st.Failovers))
	dst = appendInt(dst, int(st.FailedOver))
	dst = appendFloat(dst, st.MigrationSeconds)
	dst = appendInt(dst, len(st.Members))
	for i := range st.Members {
		m := &st.Members[i]
		if dst, err = appendString(dst, m.Name); err != nil {
			return dst, err
		}
		if m.Drained {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = append(dst, byte(m.Health))
		dst = appendInt(dst, m.Misses)
	}
	dst = appendInt(dst, len(st.Tenants))
	for i := range st.Tenants {
		t := &st.Tenants[i]
		dst = appendInt(dst, t.ID)
		if dst, err = appendString(dst, t.Backend); err != nil {
			return dst, err
		}
		dst = appendInt(dst, t.EngineID)
		if dst, err = appendString(dst, t.Workload); err != nil {
			return dst, err
		}
		dst = appendInt(dst, t.VCPUs)
		dst = appendInt(dst, t.ClassID)
		dst = appendUint(dst, uint64(t.Nodes))
		dst = appendFloat(dst, t.BasePerf)
		dst = appendFloat(dst, t.ProbePerf)
	}
	return dst, nil
}

// decodeState decodes a snapshot payload.
func decodeState(payload []byte) (*fleet.State, error) {
	rd := reader{buf: payload}
	st := &fleet.State{}
	st.Seq = rd.uint()
	st.NextID = rd.int()
	st.Admitted = int64(rd.int())
	st.Rejected = int64(rd.int())
	st.Released = int64(rd.int())
	st.Moves = int64(rd.int())
	st.Failovers = int64(rd.int())
	st.FailedOver = int64(rd.int())
	st.MigrationSeconds = rd.float()
	nm := rd.int()
	if rd.bad || nm < 0 || nm > maxFrame/4 {
		return nil, fmt.Errorf("wal: snapshot member count does not parse: %w", nperr.ErrLogCorrupt)
	}
	st.Members = make([]fleet.MemberState, nm)
	for i := range st.Members {
		m := &st.Members[i]
		m.Name = rd.string()
		m.Drained = rd.byte() != 0
		m.Health = fleet.Health(rd.byte())
		m.Misses = rd.int()
	}
	nt := rd.int()
	if rd.bad || nt < 0 || nt > maxFrame/16 {
		return nil, fmt.Errorf("wal: snapshot tenant count does not parse: %w", nperr.ErrLogCorrupt)
	}
	st.Tenants = make([]fleet.TenantState, nt)
	for i := range st.Tenants {
		t := &st.Tenants[i]
		t.ID = rd.int()
		t.Backend = rd.string()
		t.EngineID = rd.int()
		t.Workload = rd.string()
		t.VCPUs = rd.int()
		t.ClassID = rd.int()
		t.Nodes = topology.NodeSet(rd.uint())
		t.BasePerf = rd.float()
		t.ProbePerf = rd.float()
	}
	if !rd.done() {
		return nil, fmt.Errorf("wal: snapshot payload does not parse: %w", nperr.ErrLogCorrupt)
	}
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
// decode is corruption and fails with nperr.ErrLogCorrupt (wrapped).
//
// The scan allocates once for the records — sized from what buf could hold
// at most, so a boot-sized log is never regrown — and once per distinct
// string; no record keeps buf alive.
func scanFrames(buf []byte) ([]fleet.Record, int, error) {
	recs := make([]fleet.Record, 0, len(buf)/(frameHeader+minRecordPayload))
	rd := reader{intern: map[string]string{}}
	off := 0
	for {
		if off+frameHeader > len(buf) {
			return recs, off, nil // torn or clean end
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n == 0 || n > maxFrame {
			return recs, off, nil // impossible length: torn tail
		}
		if off+frameHeader+n > len(buf) {
			return recs, off, nil // short payload: torn tail
		}
		want := binary.LittleEndian.Uint32(buf[off+4:])
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != want {
			return recs, off, nil // damaged frame: treat as tail
		}
		rd.buf, rd.off, rd.bad = payload, 0, false
		r, err := rd.record()
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
