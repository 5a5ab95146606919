package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// seams are the traced pass's interposition points; the zero value
// installs nothing, which is how every end-to-end run is built.
type seams struct {
	backend   func(fleet.Backend) fleet.Backend
	persister func(p fleet.Persister, dir string) fleet.Persister
	handler   func(http.Handler) http.Handler
}

// durable is a fleet with a write-ahead log attached in a temp directory.
type durable struct {
	*testFleet
	log *wal.Log
	dir string
}

// buildDurable builds spec's fleet and attaches a fresh log, exactly as
// cmd/numaplaced does with -data-dir: Open, Restore (of nothing), then
// SetPersister.
func buildDurable(ctx context.Context, spec fleetSpec, mods models, policy wal.FsyncPolicy, sm seams) (*durable, error) {
	tf, err := buildFleet(ctx, spec, mods, sm.backend)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "numabench-wal-")
	if err != nil {
		return nil, err
	}
	l, st, recs, err := wal.Open(wal.Options{Dir: dir, Fsync: policy, Interval: 50 * time.Millisecond})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening write-ahead log: %w", err)
	}
	if err := tf.cl.Fleet().Restore(ctx, st, recs, workloads.ByName); err != nil {
		l.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("restoring an empty log: %w", err)
	}
	var p fleet.Persister = l
	if sm.persister != nil {
		p = sm.persister(l, dir)
	}
	tf.cl.Fleet().SetPersister(p)
	return &durable{testFleet: tf, log: l, dir: dir}, nil
}

// stop closes the log and removes its directory.
func (d *durable) stop() error {
	err := d.log.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// daemon is numaplaced assembled in process the way cmd/numaplaced.run
// does it — the same fleet, log, wire.Server, listener and http.Server —
// so the benchmark spawns no child and can prove it left nothing behind.
type daemon struct {
	*durable
	ws   *wire.Server
	srv  *http.Server
	addr string
	errc chan error
}

func startDaemon(ctx context.Context, mods models, sm seams) (*daemon, error) {
	du, err := buildDurable(ctx, daemonFleet, mods, wal.FsyncInterval, sm)
	if err != nil {
		return nil, err
	}
	f := du.cl.Fleet()
	ws := wire.NewServer(f, wire.Config{
		Snapshot: func() (uint64, error) { return f.Checkpoint() },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		du.stop()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = ws
	if sm.handler != nil {
		h = sm.handler(ws)
	}
	d := &daemon{durable: du, ws: ws, srv: &http.Server{Handler: h},
		addr: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { d.errc <- d.srv.Serve(ln) }()
	return d, nil
}

// stop is numaplaced's SIGTERM path: end the event streams, drain the
// server, then close the log and remove the data directory. It returns
// once the serve goroutine has exited.
func (d *daemon) stop() error {
	d.ws.Stop()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(sctx)
	if serr := <-d.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.durable.stop(); err == nil {
		err = derr
	}
	return err
}
