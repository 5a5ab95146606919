//go:build unix

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/nperr"
	"repro/internal/workloads"
)

// childEnv, set in the environment of a re-executed test binary, makes it
// numaplaced: TestMain runs main on the child's own arguments. The kill -9
// steps need a process to kill.
const childEnv = "NUMAPLACED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		// A child outlives no test binary, even one that dies before its
		// cleanups run: once its parent is gone, it goes too.
		ppid := os.Getppid()
		go func() {
			for range time.Tick(50 * time.Millisecond) {
				if os.Getppid() != ppid {
					os.Exit(1)
				}
			}
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// patience bounds every wait on a daemon: a boot, a frame, a checkpoint.
const patience = 30 * time.Second

// within polls cond until it holds, failing t after patience.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(patience); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %s", what, patience)
		}
	}
}

// output is a daemon's stdout or stderr as it is written.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// line returns the first whole line that starts with prefix, or "".
func (o *output) line(prefix string) string {
	s := o.String()
	for _, l := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, "\n") {
			return strings.TrimSuffix(l, "\n")
		}
	}
	return ""
}

// daemon is one numaplaced under test: run on a cancellable context in this
// process, or main in a re-executed child.
type daemon struct {
	stdout, stderr output
	exited         chan struct{} // closed once run or the child returns
	err            error         // what run or the child's Wait returned
	cancel         context.CancelFunc
	cmd            *exec.Cmd

	addr string // set by ready
	c    *client.Client
}

// parse returns the config main would run for args.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var stderr bytes.Buffer
	cfg, err := parseFlags(args, &stderr)
	if err != nil {
		t.Fatalf("numaplaced %s: %v\n%s", strings.Join(args, " "), err, &stderr)
	}
	return cfg
}

// startRun runs the daemon in this process until t ends or term is called.
func startRun(t *testing.T, cfg config) *daemon {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{exited: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(d.exited)
		d.err = run(ctx, cfg, &d.stdout)
	}()
	t.Cleanup(func() { cancel(); <-d.exited })
	return d
}

// startChild runs numaplaced with args as a child process, killed and
// waited for when t ends.
func startChild(t *testing.T, args ...string) *daemon {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], args...)
	d.cmd.Env = append(os.Environ(), childEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(d.exited)
		d.err = d.cmd.Wait()
	}()
	t.Cleanup(func() { d.cmd.Process.Kill(); <-d.exited })
	return d
}

// ready waits for the readiness line and points a client at its address.
func (d *daemon) ready(t *testing.T) {
	t.Helper()
	const prefix = "numaplaced: serving on "
	within(t, "readiness line", func() bool {
		select {
		case <-d.exited:
			return true
		default:
			return d.stdout.line(prefix) != ""
		}
	})
	line := d.stdout.line(prefix)
	if line == "" {
		t.Fatalf("daemon exited (%v) before becoming ready:\n%s%s", d.err, d.stdout.String(), d.stderr.String())
	}
	d.addr = strings.TrimPrefix(line, prefix)
	d.c = client.New(d.addr, client.WithRetries(0))
}

// term is SIGTERM: a signal to a child, the cancelled context to a run. It
// waits for the daemon to exit and requires a clean exit.
func (d *daemon) term(t *testing.T) {
	t.Helper()
	if d.cmd != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
	} else {
		d.cancel()
	}
	<-d.exited
	if d.err != nil {
		t.Fatalf("daemon exited with %v on SIGTERM:\n%s%s", d.err, d.stdout.String(), d.stderr.String())
	}
	if !strings.HasSuffix(d.stdout.String(), "numaplaced: bye\n") {
		t.Fatalf("daemon output does not end in its clean-shutdown line:\n%s", d.stdout.String())
	}
}

// kill9 is the crash: SIGKILL, no handler runs, and nothing is flushed
// beyond what each acknowledged request already fsynced.
func (d *daemon) kill9() {
	d.cmd.Process.Kill()
	<-d.exited
}

// get returns the body of GET path.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: http %d, %v: %s", path, resp.StatusCode, err, body)
	}
	return body
}

// sameAssignments requires got to be want byte for byte.
func sameAssignments(t *testing.T, want, got []byte, wantName, gotName string) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("/v1/assignments differ:\n--- %s ---\n%s\n--- %s ---\n%s", wantName, want, gotName, got)
	}
}

// recovery parses the daemon's recovery line: the seq it recovered to, the
// snapshot seq, and the number of records it replayed above the snapshot.
func (d *daemon) recovery(t *testing.T) (seq, snap, replayed uint64) {
	t.Helper()
	line := d.stdout.line("numaplaced: recovered ")
	var tenants int
	var dir string
	if _, err := fmt.Sscanf(line, "numaplaced: recovered %d tenants at seq %d (snapshot %d) from %s %d records replayed,",
		&tenants, &seq, &snap, &dir, &replayed); err != nil {
		t.Fatalf("no recovery line (%v):\n%s", err, d.stdout.String())
	}
	return seq, snap, replayed
}

// feed is an open /v1/events subscription: the seq of every frame it has
// read, and the frames the daemon dropped for it.
type feed struct {
	mu      sync.Mutex
	seqs    []uint64
	dropped uint64
	ended   chan struct{}
}

// watch subscribes to d's event feed until the daemon ends it or t ends.
// Once watch returns, the subscription sees every commit.
func watch(t *testing.T, d *daemon) *feed {
	es, err := d.c.Events(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f := &feed{ended: make(chan struct{})}
	go func() {
		defer close(f.ended)
		for {
			ev, err := es.Next()
			if err != nil {
				return
			}
			f.mu.Lock()
			if ev.Type == "dropped" {
				f.dropped += ev.Dropped
			} else {
				f.seqs = append(f.seqs, ev.Seq)
			}
			f.mu.Unlock()
		}
	}()
	t.Cleanup(func() { es.Close(); <-f.ended })
	return f
}

// seq returns the seq of frame i (-1: the last), or 0 before that frame.
func (f *feed) seq(i int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 {
		i += len(f.seqs)
	}
	if i < 0 || i >= len(f.seqs) {
		return 0
	}
	return f.seqs[i]
}

// churn admits and releases n containers around whatever is resident, from
// four goroutines, as a quick loadgen pass does; a full fleet's rejection
// (409 fleet_full, never a 503 no_healthy_backend: every machine is up) is
// no error, as loadgen counts it, and every admission is released.
func churn(t *testing.T, c *client.Client, n int) {
	t.Helper()
	ctx := context.Background()
	catalog := workloads.Paper()
	errs := make(chan error, 4)
	for w := range 4 {
		go func() {
			for i := w; i < n; i += 4 {
				pr, err := c.Place(ctx, catalog[i%len(catalog)].Name, 16)
				if errors.Is(err, nperr.ErrFleetFull) {
					continue
				}
				if err == nil {
					err = c.Release(ctx, pr.ID)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatalf("churn: %v", err)
		}
	}
}

// place admits one container of workload and returns its fleet-wide ID.
func place(t *testing.T, c *client.Client, workload string) int {
	t.Helper()
	pr, err := c.Place(context.Background(), workload, 16)
	if err != nil {
		t.Fatalf("placing %s: %v", workload, err)
	}
	return pr.ID
}

// step runs fn as the subtest name of t, and ends t if it fails: each step
// needs what the steps before it left.
func step(t *testing.T, name string, fn func(t *testing.T)) {
	if !t.Run(name, fn) {
		t.FailNow()
	}
}

// TestCrashRecovery is the durability property against live daemons on one
// -data-dir. Daemon 1 pins two tenants, churns and is killed with -9: the
// log tail is all there is. Daemon 2 must replay it into freshly trained
// engines and serve the byte-identical assignment set, release a recovered
// tenant as the log's next seq, and checkpoint on SIGTERM. Daemon 3 must
// recover from that snapshot alone; it pins, churns, releases a tenant the
// snapshot holds and is killed with -9. Daemon 4 must replay the snapshot
// plus the tail above it. Daemons 1 and 3 are children, to be killed; 2 and
// 4 run in this process and end as SIGTERM ends them.
func TestCrashRecovery(t *testing.T) {
	// An ephemeral port, reduced training and an fsynced log.
	args := []string{"-listen", "127.0.0.1:0", "-quick", "-data-dir", t.TempDir(), "-fsync", "always"}

	d1 := startChild(t, args...)
	step(t, "daemon 1 boots on an empty log", d1.ready)
	var pinned []int // kept: pinned[0] is released by daemon 2, pinned[1] by daemon 3
	step(t, "daemon 1 pins two tenants", func(t *testing.T) {
		// The quick fleet holds four 16-vCPU containers; two stay free
		// for the churn to admit into.
		pinned = []int{place(t, d1.c, "gcc"), place(t, d1.c, "canneal")}
	})
	var before []byte
	var head1 uint64
	step(t, "daemon 1 churns and its event feed ends at the log head", func(t *testing.T) {
		f1 := watch(t, d1)
		churn(t, d1.c, 400)
		before = d1.get(t, "/v1/assignments")
		h, err := d1.c.LogHead(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		head1 = h.Seq
		within(t, fmt.Sprintf("the feed's last frame at the log head's seq %d", head1),
			func() bool { return f1.seq(-1) == head1 })
	})
	d1.kill9()

	d2 := startRun(t, parse(t, args...))
	var recovered uint64
	step(t, "daemon 2 replays the log after kill -9", func(t *testing.T) {
		d2.ready(t)
		var snap, replayed uint64
		recovered, snap, replayed = d2.recovery(t)
		if recovered != head1 || snap != 0 || replayed != head1 {
			t.Errorf("recovered to seq %d from snapshot %d with %d records replayed; want seq %d, no snapshot, every record replayed",
				recovered, snap, replayed, head1)
		}
	})
	step(t, "daemon 2 serves daemon 1's assignments", func(t *testing.T) {
		sameAssignments(t, before, d2.get(t, "/v1/assignments"), "before kill -9", "after")
	})
	step(t, "daemon 2 reports persistence and what it recovered", func(t *testing.T) {
		h, err := d2.c.LogHead(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !h.Persistent || h.RecoveredSeq != recovered || h.RecoveredTenants != len(pinned) {
			t.Errorf("log head %+v; want persistent, recovered seq %d, %d tenants", *h, recovered, len(pinned))
		}
	})
	step(t, "daemon 2 releases a recovered tenant as the log's next seq", func(t *testing.T) {
		f2 := watch(t, d2)
		if err := d2.c.Release(context.Background(), pinned[0]); err != nil {
			t.Fatalf("releasing recovered tenant %d: %v", pinned[0], err)
		}
		within(t, "the release's frame", func() bool { return f2.seq(0) != 0 })
		if got := f2.seq(0); got != recovered+1 {
			t.Errorf("daemon 2's first frame has seq %d; it recovered seq %d", got, recovered)
		}
	})
	successor := d2.get(t, "/v1/assignments")
	var snap uint64
	step(t, "daemon 2 checkpoints on SIGTERM", func(t *testing.T) {
		d2.term(t)
		line := d2.stdout.line("numaplaced: checkpointed at seq ")
		n, err := strconv.ParseUint(strings.TrimPrefix(line, "numaplaced: checkpointed at seq "), 10, 64)
		if err != nil || n != recovered+1 {
			t.Fatalf("want a checkpoint at seq %d:\n%s", recovered+1, d2.stdout.String())
		}
		snap = n
	})

	d3 := startChild(t, args...)
	step(t, "daemon 3 recovers from the snapshot alone", func(t *testing.T) {
		d3.ready(t)
		if seq, s, replayed := d3.recovery(t); seq != snap || s != snap || replayed != 0 {
			t.Errorf("recovered to seq %d from snapshot %d with %d records replayed; want seq and snapshot %d, none replayed",
				seq, s, replayed, snap)
		}
		sameAssignments(t, successor, d3.get(t, "/v1/assignments"), "daemon 2", "daemon 3")
	})
	var third []byte
	step(t, "daemon 3 pins, churns and releases a snapshot tenant", func(t *testing.T) {
		place(t, d3.c, "gcc")
		churn(t, d3.c, 400)
		if err := d3.c.Release(context.Background(), pinned[1]); err != nil {
			t.Fatalf("releasing snapshot tenant %d: %v", pinned[1], err)
		}
		third = d3.get(t, "/v1/assignments")
	})
	d3.kill9()

	d4 := startRun(t, parse(t, args...))
	step(t, "daemon 4 replays the tail above the snapshot", func(t *testing.T) {
		d4.ready(t)
		if _, s, replayed := d4.recovery(t); s != snap || replayed == 0 {
			t.Errorf("recovered from snapshot %d with %d records replayed; want snapshot %d and a tail", s, replayed, snap)
		}
		sameAssignments(t, third, d4.get(t, "/v1/assignments"), "daemon 3", "daemon 4")
	})
	step(t, "daemon 4 checkpoints on SIGTERM", func(t *testing.T) {
		d4.term(t)
		if d4.stdout.line("numaplaced: checkpointed at seq ") == "" {
			t.Fatalf("no shutdown checkpoint:\n%s", d4.stdout.String())
		}
	})
}

// TestServe boots a daemon without persistence, serves a churn to an event
// watcher and shuts it down: it prints what it trained and where it serves,
// drops no frame, and on SIGTERM ends the feed and says bye.
func TestServe(t *testing.T) {
	d := startRun(t, parse(t, "-listen", "127.0.0.1:0", "-quick"))
	step(t, "boots and prints what it trained and where it serves", func(t *testing.T) {
		d.ready(t)
		want := "numaplaced: trained amd-0 (amd-opteron-6272)\n" +
			"numaplaced: trained intel-1 (intel-xeon-e7-4830v3)\n" +
			"numaplaced: serving on " + d.addr + "\n"
		if got := d.stdout.String(); got != want {
			t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
		}
	})
	step(t, "serves a churn and drops no frame", func(t *testing.T) {
		f := watch(t, d)
		churn(t, d.c, 400)
		h, err := d.c.LogHead(context.Background())
		if err != nil || h.Persistent {
			t.Fatalf("log head %+v, %v; want no persistence", h, err)
		}
		within(t, "the feed's last frame at the fleet's seq", func() bool { return f.seq(-1) == h.Seq })
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.dropped != 0 {
			t.Errorf("the daemon dropped %d frames for its one watcher", f.dropped)
		}
	})
	step(t, "SIGTERM ends the feed and the daemon", func(t *testing.T) {
		f := watch(t, d)
		d.term(t)
		<-f.ended
		if got := d.stdout.String(); !strings.HasSuffix(got, "numaplaced: shutting down\nnumaplaced: bye\n") {
			t.Errorf("shutdown lines missing:\n%s", got)
		}
	})
}

// TestPeriodicSnapshot: with -snapshot-every the daemon checkpoints on its
// own, with no POST /v1/snapshot.
func TestPeriodicSnapshot(t *testing.T) {
	d := startRun(t, parse(t, "-listen", "127.0.0.1:0", "-quick", "-data-dir", t.TempDir(),
		"-fsync", "none", "-snapshot-every", "50ms"))
	d.ready(t)
	place(t, d.c, "gcc")
	within(t, "a snapshot at the log head", func() bool {
		h, err := d.c.LogHead(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return h.Seq > 0 && h.SnapshotSeq == h.Seq
	})
	d.term(t)
}

// TestExitCodes runs main in a child for each exit status: usage errors 2
// (the persistence flags without -data-dir, before anything trains), -h 0,
// a startup failure 1, a log that starts with foreign bytes 3 without ever
// serving, and SIGTERM on a serving daemon 0.
func TestExitCodes(t *testing.T) {
	foreign := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreign, "log"), []byte("not a numaplaced log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   string
		code   int
		stderr string
	}{
		{"fsync without a data dir", "-fsync none", 2, "-fsync need -data-dir"},
		{"fsync-interval without a data dir", "-fsync-interval 1s", 2, "-fsync-interval need -data-dir"},
		{"snapshot-every without a data dir", "-snapshot-every 1m", 2, "-snapshot-every need -data-dir"},
		{"help", "-h", 0, "Usage of numaplaced"},
		{"unknown machine", "-machines amd,nope", 2, `-machines: unknown machine model "nope"`},
		{"log with foreign bytes", "-data-dir " + foreign, 3, filepath.Join(foreign, "log") + " is not a write-ahead log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := startChild(t, append([]string{"-listen", "127.0.0.1:0", "-quick"}, strings.Fields(tc.args)...)...)
			<-d.exited
			if code := d.cmd.ProcessState.ExitCode(); code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.Contains(d.stderr.String(), tc.stderr) {
				t.Errorf("stderr does not say %q:\n%s", tc.stderr, d.stderr.String())
			}
			if line := d.stdout.line("numaplaced: serving on "); line != "" {
				t.Errorf("served before exiting %d: %s", tc.code, line)
			}
		})
	}
	t.Run("SIGTERM", func(t *testing.T) {
		d := startChild(t, "-listen", "127.0.0.1:0", "-quick")
		d.ready(t)
		d.term(t)
	})
}

// TestParseFlags: each refusal main makes exits 2 (TestExitCodes) after
// parseFlags names it, with the usage, on stderr.
func TestParseFlags(t *testing.T) {
	for args, want := range map[string]string{
		"-fsync interval -snapshot-every 1s": "-fsync, -snapshot-every need -data-dir",
		"-vcpus 0":                           "-vcpus and -events-buffer must be positive",
		"-events-buffer -1":                  "-vcpus and -events-buffer must be positive",
		"-drain-below NaN":                   "-drain-below must be a finite number",
		"-drain-below -Inf":                  "-drain-below must be a finite number",
		"-policy round-robin":                `unknown policy "round-robin"`,
		"-machines amd,nope":                 `-machines: unknown machine model "nope"`,
		"-machines amd,":                     `-machines: unknown machine model ""`,
		"-data-dir d -fsync sometimes":       `unknown fsync policy "sometimes"`,
		"serve":                              "unexpected arguments: serve",
		"-listen":                            "flag needs an argument: -listen",
	} {
		var stderr bytes.Buffer
		if _, err := parseFlags(strings.Fields(args), &stderr); err == nil {
			t.Errorf("numaplaced %s: accepted", args)
		}
		if got := stderr.String(); !strings.Contains(got, want+"\n") || !strings.Contains(got, "Usage of numaplaced") {
			t.Errorf("numaplaced %s: stderr does not say %q with the usage:\n%s", args, want, got)
		}
	}
	cfg := parse(t, "-data-dir", "d", "-fsync", "interval", "-machines", "amd,amd", "-policy", "least-loaded")
	if cfg.dataDir != "d" || cfg.fsync.String() != "interval" || strings.Join(cfg.machines, ",") != "amd,amd" ||
		cfg.policy.String() != "least-loaded" || cfg.vcpus != 16 || cfg.listen != "127.0.0.1:7070" {
		t.Errorf("parsed %+v", cfg)
	}
}

// TestRunRefusesABusyAddress: a daemon that cannot listen says where, and
// returns before serving.
func TestRunRefusesABusyAddress(t *testing.T) {
	d := startRun(t, parse(t, "-listen", "127.0.0.1:0", "-quick"))
	d.ready(t)
	addr := strings.TrimPrefix(d.addr, "http://")
	var stdout output
	err := run(context.Background(), parse(t, "-listen", addr, "-quick"), &stdout)
	if err == nil || !strings.Contains(err.Error(), "listening on "+addr) {
		t.Errorf("second daemon on %s: %v", addr, err)
	}
	if line := stdout.line("numaplaced: serving on "); line != "" {
		t.Errorf("served: %s", line)
	}
}
