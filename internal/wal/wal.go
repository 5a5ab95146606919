//go:build unix

// Package wal persists fleet state: an append-only, CRC32C-framed event
// log plus atomically replaced snapshots, together implementing
// fleet.Persister. The write path is built for the admission hot path —
// Append encodes into a reused buffer under the log's own lock (zero
// allocations steady-state, no syscalls), and Commit copies the buffer
// into a shared read-write mapping of the log file: its only syscalls are
// the fsync its policy asks for, which N concurrent admissions share, and
// a reservation once per reserveChunk of records. The read path (Open) is
// built for honest recovery: the longest valid frame prefix is returned and
// the torn tail a crash left behind is truncated, while structural
// corruption — frames that verify but do not parse, sequence gaps, a
// foreign magic — refuses with nperr.ErrLogCorrupt rather than guessing,
// because a log that lies is worse than no log. Open scans the file where it
// lies, through a read-only mapping it drops before returning: a header pass
// sizes the record slice exactly, then each CRC-checked frame is decoded
// straight into its slot, its names interned as copies, so a restart copies
// each record once.
//
// Crash-safety argument, in order of the moving parts:
//
//   - Every Commit copies its records into the mapping, which is the
//     page cache write(2) would fill, and fsync writes the mapped pages
//     back per FsyncPolicy; a crash loses at most the un-fsynced suffix,
//     which recovery then sees as a torn tail. The fleet's in-memory
//     state is always a superset of the log, never behind it.
//   - The file grows by reserveChunk of real zero blocks ahead of the
//     records, so an open log carries a zero tail: a kill leaves it on
//     disk and recovery truncates it as a torn tail (a zero length field
//     ends the scan); Close truncates it. A full disk fails the
//     reservation, and the Commit, instead of faulting a store. Truncating
//     the file under a running process does fault it (SIGBUS).
//   - Snapshots are written to a temp file, fsynced, renamed over the
//     previous snapshot, and the directory fsynced: the snapshot file is
//     always a complete previous or complete next snapshot, never a blend.
//   - The log is truncated only AFTER the snapshot rename returns. A crash
//     between the two leaves records at or below the snapshot's sequence
//     in the log; fleet.Restore skips those by sequence, so the overlap is
//     harmless.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/nperr"
)

// FsyncPolicy selects when Commit forces the log to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before Commit returns: a successful mutation is
	// on disk. The group-commit batch amortizes the flush across
	// concurrent mutations.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval hands records to the OS on every Commit and fsyncs from
	// a background flusher every Options.Interval: a crash loses at most one
	// interval of committed mutations, a machine power loss included.
	FsyncInterval
	// FsyncNone hands records to the OS on every Commit and never fsyncs: a
	// process crash loses nothing (the OS has the bytes), an OS crash
	// loses the page cache. The right trade for tests and simulation.
	FsyncNone
)

// PolicyByName resolves the CLI-style fsync policy names.
func PolicyByName(name string) (FsyncPolicy, bool) {
	switch name {
	case "always":
		return FsyncAlways, true
	case "interval":
		return FsyncInterval, true
	case "none":
		return FsyncNone, true
	default:
		return 0, false
	}
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent. It holds two files,
	// "log" and "snapshot", plus a transient "snapshot.tmp".
	Dir string
	// Fsync selects the durability bar (default FsyncAlways).
	Fsync FsyncPolicy
	// Interval is the background flush cadence under FsyncInterval;
	// 0 selects 50ms.
	Interval time.Duration
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 50 * time.Millisecond
	}
	return o.Interval
}

// Head reports the log's durable position.
type Head struct {
	// Seq is the last sequence appended to the log (or recovered from it).
	Seq uint64
	// SnapshotSeq is the sequence the on-disk snapshot covers (0: none).
	SnapshotSeq uint64
	// RecoveredSeq is the sequence recovery replayed up to at Open (0 for
	// a fresh log): Seq minus RecoveredSeq is the work done since boot.
	RecoveredSeq uint64
}

// reserveChunk is how far the log file grows at a time. The chunk is
// written as real zero blocks, not a Truncate hole: a full disk then fails
// the write that reserves it instead of a later store into the mapping.
const reserveChunk = 1 << 20

// zeroChunk is what a reservation writes.
var zeroChunk [reserveChunk]byte

// Log is an open write-ahead log; it implements fleet.Persister. Append is
// called under the fleet's lock and must stay cheap: it only encodes into
// an owned buffer. Commit copies that buffer into the mapping and does the
// syscalls its fsync policy needs. All methods are safe for concurrent use.
type Log struct {
	dir      string
	opts     Options
	recovSeq uint64

	mu      sync.Mutex
	f       *os.File
	mapped  []byte // shared mapping of the whole file; nil until a commit reserves
	off     int    // valid length: the magic plus every frame handed to the OS
	buf     []byte // encoded frames awaiting the copy
	scratch []byte // single-record encode buffer (CRC input)
	lastSeq uint64 // last appended (or recovered) sequence
	written uint64 // last sequence handed to the OS
	durable uint64 // last sequence fsynced (== written under FsyncNone)
	snapSeq uint64
	err     error // sticky write error; surfaces on every Commit
	closed  bool

	flushStop chan struct{} // closes the background flusher, if any
	flushDone chan struct{}
}

// Open opens (creating if needed) the write-ahead state under opts.Dir and
// returns the log ready for appending, the latest snapshot (nil if none)
// and the valid record tail for replay. A torn tail — the suffix a crash
// left incomplete or damaged — is truncated silently; structural
// corruption fails with an error wrapping nperr.ErrLogCorrupt and leaves
// the files untouched for inspection.
func Open(opts Options) (*Log, *fleet.State, []fleet.Record, error) {
	if opts.Dir == "" {
		return nil, nil, nil, fmt.Errorf("wal: Options.Dir must be set")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	st, err := readSnapshot(filepath.Join(opts.Dir, "snapshot"))
	if err != nil {
		return nil, nil, nil, err
	}

	logPath := filepath.Join(opts.Dir, "log")
	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: opening %s: %w", logPath, err)
	}
	recs, validLen, size, err := readLog(f, logPath)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if size == 0 {
		// Fresh log: write the magic now so a crash before the first
		// append still leaves a recognizable file, and make its directory
		// entry durable, or a power cut could drop the file and every
		// record later fsynced into it.
		if _, err := f.WriteAt(logMagic, 0); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: initializing %s: %w", logPath, err)
		}
		if opts.Fsync != FsyncNone {
			if err := syncDir(opts.Dir); err != nil {
				f.Close()
				return nil, nil, nil, fmt.Errorf("wal: fsyncing %s: %w", opts.Dir, err)
			}
		}
		validLen = len(logMagic)
	}

	// Cross-check the log tail against the snapshot: records must connect
	// to (or overlap) the snapshot's sequence, or the history has a hole.
	snapSeq := uint64(0)
	if st != nil {
		snapSeq = st.Seq
	}
	lastSeq := snapSeq
	if len(recs) > 0 {
		if recs[0].Seq > snapSeq+1 {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: log starts at seq %d but snapshot covers %d: %w",
				recs[0].Seq, snapSeq, nperr.ErrLogCorrupt)
		}
		if tail := recs[len(recs)-1].Seq; tail > lastSeq {
			lastSeq = tail
		}
	}

	// Truncate the torn tail (a zero tail included); appends land at validLen.
	if int64(validLen) < size {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", logPath, err)
		}
	}

	l := &Log{
		dir: opts.Dir, opts: opts, recovSeq: lastSeq,
		f: f, off: validLen, lastSeq: lastSeq, written: lastSeq, durable: lastSeq,
		snapSeq: snapSeq,
	}
	if opts.Fsync == FsyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flusher()
	}
	return l, st, recs, nil
}

// readLog scans the log file f (named path) through a read-only mapping and
// returns the records of its valid frame prefix, that prefix's length, the
// magic included, and the file's size: 0, with no records, for a fresh
// file. The mapping is gone when readLog returns; no record views it.
func readLog(f *os.File, path string) (recs []fleet.Record, validLen int, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	size = fi.Size()
	if size == 0 {
		return nil, 0, 0, nil
	}
	if int64(int(size)) != size {
		return nil, 0, 0, fmt.Errorf("wal: %s is %d bytes, too large to map: %w", path, size, nperr.ErrLogCorrupt)
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: mapping %s: %w", path, err)
	}
	defer func() {
		if uerr := syscall.Munmap(buf); uerr != nil && err == nil {
			err = fmt.Errorf("wal: unmapping %s: %w", path, uerr)
		}
	}()
	if len(buf) < len(logMagic) || string(buf[:len(logMagic)]) != string(logMagic) {
		return nil, 0, size, fmt.Errorf("wal: %s is not a write-ahead log: %w", path, nperr.ErrLogCorrupt)
	}
	recs, n, err := scanFrames(buf[len(logMagic):])
	if err != nil {
		return nil, 0, size, fmt.Errorf("wal: %s: %w", path, err)
	}
	return recs, len(logMagic) + n, size, nil
}

// readSnapshot loads and decodes the snapshot file; a missing file is a
// nil State, anything unparsable is corruption.
func readSnapshot(path string) (*fleet.State, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	if len(buf) < len(snapMagic) || string(buf[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: %s is not a version 2 snapshot: %w", path, nperr.ErrLogCorrupt)
	}
	st, err := decodeState(buf[len(snapMagic):])
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return st, nil
}

// Append implements fleet.Persister: encode the record as a frame into the
// owned buffer. Called under the fleet's lock — no syscalls, no blocking,
// zero allocations once the buffers are warm. Errors (a record that does
// not encode, an append after Close) latch and surface on the next Commit.
//
//numalint:noalloc
func (l *Log) Append(r fleet.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		if l.err == nil {
			//numalint:ignore noalloc cold path: first-error latch after Close, taken at most once
			l.err = fmt.Errorf("wal: append of seq %d: %w", r.Seq, nperr.ErrLogClosed)
		}
		return
	}
	var err error
	l.scratch, err = appendRecord(l.scratch[:0], &r)
	if err != nil {
		if l.err == nil {
			//numalint:ignore noalloc cold path: first-error latch on encode failure, taken at most once
			l.err = fmt.Errorf("wal: encoding seq %d: %w", r.Seq, err)
		}
		return
	}
	l.buf = appendFrame(l.buf, l.scratch)
	l.lastSeq = r.Seq
}

// Commit implements fleet.Persister: hand everything buffered to the OS
// and wait per the fsync policy. Callers already durable through seq
// return without touching the file — that skip is what turns N concurrent
// mutations into one batched copy+fsync.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: commit of seq %d: %w", seq, nperr.ErrLogClosed)
	}
	bar := l.written
	if l.opts.Fsync == FsyncAlways {
		bar = l.durable
	}
	if seq <= bar {
		return nil
	}
	if err := l.writeLocked(); err != nil {
		return err
	}
	if l.opts.Fsync == FsyncAlways {
		return l.syncLocked()
	}
	return nil
}

// writeLocked hands the frame buffer to the OS: a copy into the mapping at
// the valid length, reserving room first if the mapping lacks it. Callers
// hold l.mu.
func (l *Log) writeLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if need := l.off + len(l.buf); need > len(l.mapped) {
		if err := l.reserveLocked(need); err != nil {
			l.err = fmt.Errorf("wal: reserving log: %w", err)
			return l.err
		}
	}
	l.off += copy(l.mapped[l.off:], l.buf)
	l.buf = l.buf[:0]
	l.written = l.lastSeq
	return nil
}

// reserveLocked grows the file by zero chunks until it holds need bytes,
// then maps all of it again. The fill starts past both the old mapping and
// the valid length, so it never overwrites a frame. Callers hold l.mu.
func (l *Log) reserveLocked(need int) error {
	end := max(len(l.mapped), l.off)
	for end < need {
		if _, err := l.f.WriteAt(zeroChunk[:], int64(end)); err != nil {
			return err
		}
		end += reserveChunk
	}
	if err := l.unmapLocked(); err != nil {
		return err
	}
	m, err := syscall.Mmap(int(l.f.Fd()), 0, end, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mapping %d bytes: %w", end, err)
	}
	l.mapped = m
	return nil
}

// unmapLocked drops the mapping; the next commit maps the file again.
// Callers hold l.mu.
func (l *Log) unmapLocked() error {
	if l.mapped == nil {
		return nil
	}
	err := syscall.Munmap(l.mapped)
	l.mapped = nil
	return err
}

// syncLocked fsyncs the log file. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.durable == l.written {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsyncing log: %w", err)
		return l.err
	}
	l.durable = l.written
	return nil
}

// flusher is the FsyncInterval background loop. Each tick hands the buffer
// to the OS under l.mu, then fsyncs without it, so an Append (taken under
// the fleet's lock) never waits behind the disk; what the fsync covered is
// published under l.mu afterwards. Close stops the loop before it closes
// the file, so the handle outlives every fsync here.
func (l *Log) flusher() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.interval())
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.flush()
		}
	}
}

// flush is one flusher tick.
func (l *Log) flush() {
	l.mu.Lock()
	if l.closed || l.err != nil || l.writeLocked() != nil || l.durable == l.written {
		l.mu.Unlock()
		return
	}
	target := l.written
	l.mu.Unlock()

	err := l.f.Sync()

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsyncing log: %w", err)
		}
		return
	}
	l.durable = max(l.durable, target)
}

// Snapshot implements fleet.Persister: persist st atomically (temp file,
// fsync, rename, directory fsync) and then truncate the log — records at
// or below st.Seq are covered by the snapshot. Called under the fleet's
// lock, which is what guarantees no append races the truncation.
func (l *Log) Snapshot(st fleet.State) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: snapshot at seq %d: %w", st.Seq, nperr.ErrLogClosed)
	}
	if l.err != nil {
		return l.err
	}
	// Flush buffered records first: everything the snapshot covers was
	// appended before it (same lock), and an unwritable log should fail
	// the snapshot rather than truncate history it never persisted.
	if err := l.writeLocked(); err != nil {
		return err
	}

	blob, err := appendState(append([]byte(nil), snapMagic...), &st)
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot at seq %d: %w", st.Seq, err)
	}
	tmp := filepath.Join(l.dir, "snapshot.tmp")
	final := filepath.Join(l.dir, "snapshot")
	if err := writeFileSync(tmp, blob); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: fsyncing %s: %w", l.dir, err)
	}
	l.snapSeq = st.Seq

	// History at or below st.Seq now lives in the snapshot; restart the
	// log. A crash before (or during) this truncation leaves a pre-
	// snapshot tail that replay skips by sequence. The mapping goes first:
	// a store past the new end of file would fault, so the next commit
	// reserves and maps again.
	if err := l.unmapLocked(); err != nil {
		l.err = fmt.Errorf("wal: unmapping log after snapshot: %w", err)
		return l.err
	}
	if err := l.f.Truncate(int64(len(logMagic))); err != nil {
		l.err = fmt.Errorf("wal: truncating log after snapshot: %w", err)
		return l.err
	}
	l.off = len(logMagic)
	if l.opts.Fsync != FsyncNone {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsyncing truncated log: %w", err)
			return l.err
		}
	}
	l.durable = l.written
	return nil
}

// Head reports the log's current position.
func (l *Log) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Head{Seq: l.lastSeq, SnapshotSeq: l.snapSeq, RecoveredSeq: l.recovSeq}
}

// Close flushes, fsyncs and closes the log, and truncates the file to its
// valid frames, so a closed log carries no zero tail — after a latched
// error too. Further Appends latch nperr.ErrLogClosed and further Commits
// return it. Close is idempotent; the first error wins.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.err == nil {
		if err = l.writeLocked(); err == nil {
			err = l.syncLocked()
		}
	} else {
		err = l.err
	}
	if l.mapped != nil || l.err != nil {
		// By path, not by handle: the valid prefix is cut even when the
		// handle is what failed.
		terr := l.unmapLocked()
		if terr == nil {
			terr = os.Truncate(filepath.Join(l.dir, "log"), int64(l.off))
		}
		if terr != nil && err == nil {
			err = fmt.Errorf("wal: truncating log to its frames: %w", terr)
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: closing log: %w", cerr)
	}
	return err
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
