package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// The operator's mix, fixed per 10 000 admissions so every run and both
// commits of a comparison see the same work: 100 Stats, 20 Assignments,
// 1 Rebalance(120), 1 Drain→Resume, 1 Fail→Revive, and 1 Checkpoint per
// 50 000. A tick is 100 admissions; positions are ticks within a block.
const (
	tickAdmissions  = 100
	ticksPerBlock   = 100
	readEvery       = 5
	rebalanceAt     = 10
	drainAt         = 30
	resumeAt        = 35
	failAt          = 50
	checkpointAt    = 90
	checkpointBlock = 5
	rebalanceBudget = 120

	// reviveSpacing is the least number of admissions between a Fail
	// returning and the Revive of the same machine. Back-to-back
	// Fail→Revive racing an in-flight Place is an ABA on the member's
	// health (bench/README.md, "Known hazard"); spacing them keeps the
	// workload off it, and checkBooks would catch a recurrence.
	reviveSpacing = 2500
)

// operator runs the management side of fleet_manage against the same
// fleet the admitter loads. tick is called with consecutive tick numbers:
// by the operator goroutine as the admitter's count reaches them in a
// measured window, inline by the serial traced pass.
type operator struct {
	tf *testFleet
	t  *tracer

	dead, drained string
	reviveAt      int                  // admission count from which the dead machine may rejoin
	samples       map[string][]float64 // µs per operation
	moves         []float64            // cross+intra moves per rebalance pass
	ops, rejects  int
	fails         int
	firstErr      error
}

func newOperator(tf *testFleet, t *tracer) *operator {
	return &operator{tf: tf, t: t, samples: map[string][]float64{}}
}

// timed runs one operator call under a span and records its latency.
func (o *operator) timed(name string, fn func() error) {
	o.t.nextOp()
	i := o.t.begin("fleet."+name, -1)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	o.t.end(i, "")
	o.ops++
	o.samples[name] = append(o.samples[name], float64(d)/1e3)
	switch {
	case err == nil:
	case rejected(err):
		o.rejects++ // a pass that could not rehome everyone is a verdict
	default:
		o.fails++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("%s: %w", name, err)
		}
	}
}

// tick performs the operations due at tick n; count is the admitter's
// admission count when it runs.
func (o *operator) tick(ctx context.Context, n int, count func() int) {
	cl := o.tf.cl
	block, pos := n/ticksPerBlock, n%ticksPerBlock
	o.timed("stats", func() error { cl.Stats(); return nil })
	if n%readEvery == 0 {
		o.timed("assignments", func() error { cl.Assignments(); return nil })
	}
	if o.dead != "" && count() >= o.reviveAt {
		o.revive(ctx)
	}
	switch pos {
	case rebalanceAt:
		o.timed("rebalance", func() error {
			rep, err := cl.Rebalance(ctx, rebalanceBudget)
			if rep != nil {
				m := len(rep.Moves)
				for _, ip := range rep.Intra {
					m += len(ip.Report.Moves)
				}
				o.moves = append(o.moves, float64(m))
			}
			return err
		})
	case drainAt:
		name := o.tf.names[(2*block)%len(o.tf.names)]
		if name != o.dead { // never drain the dead machine
			o.timed("drain", func() error { _, err := cl.Drain(ctx, name); return err })
			o.drained = name
		}
	case resumeAt:
		o.resume()
	case failAt:
		name := o.tf.names[(2*block+1)%len(o.tf.names)]
		if o.dead == "" && name != o.drained {
			o.timed("fail", func() error { _, err := cl.Fail(ctx, name); return err })
			o.dead = name
			o.reviveAt = count() + reviveSpacing
		}
	case checkpointAt:
		if block%checkpointBlock == checkpointBlock-1 {
			o.timed("checkpoint", func() error { _, err := cl.Fleet().Checkpoint(); return err })
		}
	}
}

func (o *operator) revive(ctx context.Context) {
	name := o.dead
	o.timed("revive", func() error { _, err := o.tf.cl.Revive(ctx, name); return err })
	o.dead = ""
}

func (o *operator) resume() {
	if o.drained == "" {
		return
	}
	name := o.drained
	o.timed("resume", func() error { return o.tf.cl.Resume(name) })
	o.drained = ""
}

// settle brings the fleet back to a quiescent state — every machine
// healthy and open — so the books can be checked.
func (o *operator) settle(ctx context.Context) {
	if o.dead != "" {
		o.revive(ctx)
	}
	o.resume()
}

// pace connects a measured window's admitter to the operator goroutine:
// the admitter publishes its count and nudges the operator whenever a
// tick boundary is crossed; the operator runs every due tick in order.
type pace struct {
	count atomic.Int64
	wake  chan struct{}
	sync  chan chan struct{}
}

func newPace() *pace {
	return &pace{wake: make(chan struct{}, 1), sync: make(chan chan struct{})}
}

// admitted is the admitter's onCycle hook.
func (p *pace) admitted(n int) {
	p.count.Store(int64(n))
	if n%tickAdmissions == 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// operate runs ticks as the count reaches them until ctx is done.
func (p *pace) operate(ctx context.Context, o *operator) {
	count := func() int { return int(p.count.Load()) }
	var caughtUp chan struct{}
	for next := 1; ; {
		for count() >= next*tickAdmissions {
			if ctx.Err() != nil {
				return
			}
			o.tick(ctx, next, count)
			next++
		}
		if caughtUp != nil {
			close(caughtUp)
			caughtUp = nil
		}
		select {
		case <-ctx.Done():
			return
		case <-p.wake:
		case caughtUp = <-p.sync:
		}
	}
}

// settle returns once the operator has run every tick due so far and is
// idle. The admitter must be stopped, so no new tick falls due meanwhile.
func (p *pace) settle(ctx context.Context) {
	done := make(chan struct{})
	select {
	case p.sync <- done:
		select {
		case <-done:
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
}
