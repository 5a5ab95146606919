//go:build unix

package numaplace_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/fleet"
	"repro/internal/nperr"
	"repro/internal/recipe"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// restartFleets hands out two-machine fleets (amd-0, intel-1) built by the
// daemons' recipe from one pair of models trained once: what a restarted
// daemon, retraining with the same seeds, would build.
func restartFleets(t *testing.T, ctx context.Context) func() *fleet.Fleet {
	t.Helper()
	models, err := recipe.Train(ctx, []string{"amd", "intel"}, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	return func() *fleet.Fleet {
		cl, err := models.Build(ctx, numaplace.ClusterConfig{
			Policy: fleet.LeastLoaded, Health: fleet.HealthConfig{FailoverBudgetSeconds: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
}

// reopen is a daemon's boot: recipe.Recover, which is wal.Open, Restore,
// SetPersister.
func reopen(t *testing.T, ctx context.Context, dir string, f *fleet.Fleet) *wal.Log {
	t.Helper()
	l, _, _, err := recipe.Recover(ctx, f, wal.Options{Dir: dir, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestSeqContinuesAcrossRestart: the one number survives a restart. A fleet
// logging to real files runs a 200-operation trace with a checkpoint halfway
// and none at the end; for each of the last 32 record boundaries a successor
// boots from the files cut there, and the first thing it commits carries the
// last surviving record's number plus one — on the feed, in Fleet.Seq and at
// the reopened log's head alike.
func TestSeqContinuesAcrossRestart(t *testing.T) {
	ctx := context.Background()
	build := restartFleets(t, ctx)
	dir := t.TempDir()
	f := build()
	l := reopen(t, ctx, dir, f)

	gcc, _ := numaplace.WorkloadByName("gcc")
	rng := xrand.New(24)
	var live []int
	for op := 0; op < 200; op++ {
		switch k := rng.Intn(100); {
		case k < 40:
			adm, err := f.Place(ctx, gcc, 16)
			if err == nil {
				live = append(live, adm.ID)
			} else if !errors.Is(err, numaplace.ErrFleetFull) {
				t.Fatalf("op %d: Place: %v", op, err)
			}
		case k < 70 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := f.Release(ctx, live[i]); err != nil {
				t.Fatalf("op %d: Release(%d): %v", op, live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
		case k < 80:
			f.Rebalance(ctx, 1e6) // stranding is a result
		case k < 90:
			f.Fail(ctx, []string{"amd-0", "intel-1"}[rng.Intn(2)]) // so is already dead
		default:
			f.Revive(ctx, []string{"amd-0", "intel-1"}[rng.Intn(2)]) // and not dead
		}
		if op == 100 {
			if _, err := f.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries (DESIGN.md, "Durable fleet state": an 8-byte magic,
	// then u32 length | u32 CRC | payload per record).
	var ends []int
	for off := 8; off < len(blob); {
		off += 8 + int(binary.LittleEndian.Uint32(blob[off:]))
		ends = append(ends, off)
	}
	if len(ends) < 32 || ends[len(ends)-1] != len(blob) {
		t.Fatalf("log of %d bytes walks as %d frames, want at least 32 ending at its end", len(blob), len(ends))
	}

	placed := 0
	for _, cut := range ends[len(ends)-32:] {
		cutDir := t.TempDir()
		if err := errors.Join(os.WriteFile(filepath.Join(cutDir, "snapshot"), snap, 0o644),
			os.WriteFile(filepath.Join(cutDir, "log"), blob[:cut], 0o644)); err != nil {
			t.Fatal(err)
		}
		succ := build()
		sl := reopen(t, ctx, cutDir, succ)
		want := sl.Head().RecoveredSeq + 1
		sub := succ.Subscribe(4)
		_, perr := succ.Place(ctx, gcc, 16)
		if perr != nil && !errors.Is(perr, numaplace.ErrFleetFull) {
			t.Fatalf("cut at %d: Place: %v", cut, perr)
		}
		if got := succ.Seq(); got != want {
			t.Fatalf("cut at %d: Fleet.Seq() = %d after the first commit, want %d", cut, got, want)
		}
		if got := sl.Head().Seq; got != want {
			t.Fatalf("cut at %d: the log's head is at %d after the first commit, want %d", cut, got, want)
		}
		var frame [2]fleet.Record
		n, _ := sub.Drain(frame[:])
		sub.Close()
		if perr != nil { // a rejection takes the number and is not on the feed
			if n != 0 {
				t.Fatalf("cut at %d: a rejected Place delivered %+v", cut, frame[:n])
			}
			continue
		}
		placed++
		if n != 1 || frame[0].Type != fleet.RecPlace || frame[0].Seq != want {
			t.Fatalf("cut at %d: the feed delivered %+v, want one place with seq %d", cut, frame[:n], want)
		}
	}
	if placed == 0 {
		t.Fatal("no successor admitted its probe: the feed's number went unchecked")
	}
}

// TestAttachAfterCommits is SetPersister's rule for a fleet that committed
// before it attached: checkpoint at once and the files restore to the live
// fleet; do not, and the log starts past a snapshot that is not there, which
// Open refuses rather than restore the fleet in part.
func TestAttachAfterCommits(t *testing.T) {
	ctx := context.Background()
	build := restartFleets(t, ctx)
	gcc, _ := numaplace.WorkloadByName("gcc")
	for _, checkpoint := range []bool{true, false} {
		dir := t.TempDir()
		f := build()
		if _, err := f.Place(ctx, gcc, 16); err != nil {
			t.Fatal(err)
		}
		l, _, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		f.SetPersister(l)
		if checkpoint {
			if _, err := f.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Place(ctx, gcc, 16); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !checkpoint {
			if _, _, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone}); !errors.Is(err, nperr.ErrLogCorrupt) {
				t.Fatalf("Open of a log begun at seq 2 over no snapshot: %v, want ErrLogCorrupt", err)
			}
			continue
		}
		twin := build()
		reopen(t, ctx, dir, twin)
		if got, want := twin.Assignments(), f.Assignments(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, want)
		}
		if got, want := twin.Stats(), f.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored stats %+v, original %+v", got, want)
		}
		if got, want := twin.Seq(), f.Seq(); got != want || want != 2 {
			t.Fatalf("restored seq %d, original %d, want 2", got, want)
		}
	}
}
