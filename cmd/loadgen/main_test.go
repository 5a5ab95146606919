//go:build unix

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/recipe"
	"repro/internal/wire"
)

// serve runs a quick two-machine fleet behind the wire protocol, as
// numaplaced -quick serves it, until t ends. A non-empty refuse names a route
// the server answers with 400 instead.
func serve(t *testing.T, refuse string) string {
	t.Helper()
	ctx := context.Background()
	models, err := recipe.Train(ctx, []string{"amd", "intel"}, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := numaplace.ClusterPolicyByName("best-predicted")
	cl, err := models.Build(ctx, numaplace.ClusterConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(cl, wire.Config{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == refuse {
			http.Error(w, "refused", http.StatusBadRequest)
			return
		}
		ws.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ws.Stop(); srv.Close() })
	return srv.URL
}

// parse returns the config loadgen would run for args.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var stderr bytes.Buffer
	cfg, err := parseFlags(args, &stderr)
	if err != nil {
		t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, &stderr)
	}
	return cfg
}

// TestRun drives a quick fleet in the closed loop and in the open one: every
// attempt is admitted or rejected, none fails, and the event feed drops no
// frame.
func TestRun(t *testing.T) {
	addr := serve(t, "")
	for _, tc := range []struct {
		name    string
		args    []string
		workers int // reported: none in the open loop
	}{
		{"closed loop", []string{"-quick"}, 4},
		{"open loop", []string{"-quick", "-n", "200", "-rate", "5000", "-hold", "1ms"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parse(t, append([]string{"-addr", addr}, tc.args...)...)
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.firstErr != nil {
				t.Errorf("%d request errors, first: %v", res.Errors, res.firstErr)
			}
			if res.EventsDropped != 0 {
				t.Errorf("the daemon dropped %d event frames", res.EventsDropped)
			}
			if res.Admitted+res.Rejected != int64(cfg.n) || res.Admitted == 0 {
				t.Errorf("%d admitted + %d rejected, want %d attempts with some admitted", res.Admitted, res.Rejected, cfg.n)
			}
			var out bytes.Buffer
			report(&out, res)
			head := fmt.Sprintf("loadgen: %d attempts, %d workers, ", cfg.n, tc.workers)
			if !strings.HasPrefix(out.String(), head) || !strings.Contains(out.String(), "\nerrors            0\n") {
				t.Errorf("report does not start %q or count no errors:\n%s", head, &out)
			}
		})
	}
}

// TestRunCountsRequestErrors: a request the daemon refuses is an error, not
// a rejection, and the first is kept. Here every release is refused, so the
// fleet fills and later places are rejected.
func TestRunCountsRequestErrors(t *testing.T) {
	res, err := run(context.Background(), parse(t, "-addr", serve(t, "/v1/release"), "-quick", "-n", "8", "-c", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Errors != res.Admitted || res.Admitted+res.Rejected != 8 ||
		res.firstErr == nil || !strings.HasPrefix(res.firstErr.Error(), "release ") {
		t.Errorf("%d admitted, %d rejected, %d errors, first %v; want every admission's release failed",
			res.Admitted, res.Rejected, res.Errors, res.firstErr)
	}
}

// TestRunWaitsForTheDaemon: run fails once -wait passes with no daemon
// answering, and stops waiting when its context ends.
func TestRunWaitsForTheDaemon(t *testing.T) {
	srv := httptest.NewServer(nil)
	addr := srv.URL
	srv.Close() // nothing listens here now
	_, err := run(context.Background(), parse(t, "-addr", addr, "-wait", "1ms"))
	if err == nil || !strings.Contains(err.Error(), "not ready after 1ms") {
		t.Errorf("no daemon: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := run(ctx, parse(t, "-addr", addr)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled wait: %v", err)
	}
}

// TestParseFlags: each refusal names itself, with the usage, on stderr.
func TestParseFlags(t *testing.T) {
	for _, args := range []string{"-n 0", "-c 0", "-vcpus 0", "-hold -1s", "-think -1s",
		"-rate -1", "-rate +Inf", "-rate NaN", "stray", "-quick stray"} {
		var stderr bytes.Buffer
		if _, err := parseFlags(strings.Fields(args), &stderr); err == nil {
			t.Errorf("loadgen %s: accepted", args)
		}
		if got := stderr.String(); !strings.Contains(got, "Usage of loadgen") {
			t.Errorf("loadgen %s: no usage on stderr:\n%s", args, got)
		}
	}
}

// TestQuickDefaults: -quick sets -n 400 -c 4 -hold 0 for the flags not
// given, whatever their position.
func TestQuickDefaults(t *testing.T) {
	type shape struct {
		n, workers int
		hold       time.Duration
	}
	for args, want := range map[string]shape{
		"":                         {20000, 16, 2 * time.Millisecond},
		"-quick":                   {400, 4, 0},
		"-quick -n 10":             {10, 4, 0},
		"-c 2 -quick":              {400, 2, 0},
		"-quick -hold 3ms":         {400, 4, 3 * time.Millisecond},
		"-n 7 -c 1 -hold 0 -quick": {7, 1, 0},
	} {
		cfg := parse(t, strings.Fields(args)...)
		if got := (shape{cfg.n, cfg.workers, cfg.hold}); got != want {
			t.Errorf("loadgen %s: %+v, want %+v", args, got, want)
		}
	}
}
