package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/des"
)

// ProbeFunc answers one liveness probe: true means the named backend
// responded in time, false means the deadline passed. Implementations
// own the actual probing (an RPC ping, a scripted failure scenario);
// the monitor owns only the cadence and the state-machine bookkeeping.
type ProbeFunc func(name string) bool

// MonitorConfig tunes a health monitor loop.
type MonitorConfig struct {
	// IntervalSeconds is the probe cadence; 0 selects the default 10.
	IntervalSeconds float64
	// Probe answers each backend's liveness probe (required).
	Probe ProbeFunc
	// Until, when non-nil, is consulted at the start of every tick: the
	// loop ends (without probing or rescheduling) once it returns false.
	// Simulations use it to wind the monitor down with the workload.
	Until func() bool
	// OnTransition observes every health-state change the monitor drives,
	// with the failover report and error when the transition to Dead ran
	// one. Called from the tick's sim event, in probe order.
	OnTransition func(name string, from, to Health, rep *Report, err error)
	// OnRejoin, when non-nil, observes each dead backend whose probe
	// answers again and which the monitor therefore revived (fencing its
	// stale books), with the number of fenced orphan records.
	OnRejoin func(name string, fenced int, err error)
}

func (c MonitorConfig) interval() float64 {
	if c.IntervalSeconds <= 0 {
		return 10
	}
	return c.IntervalSeconds
}

// Monitor drives the fleet's health state machine from periodic liveness
// probes: each tick probes every backend in add order, feeding answers to
// Heartbeat, misses to MissProbe (which runs the automatic failover on a
// death transition), and an answer from a dead backend to Revive. Build
// one with Fleet.Monitor, run it with Start, end it with Stop (or a false
// Until).
type Monitor struct {
	f   *Fleet
	cfg MonitorConfig
	sim *des.Sim

	mu      sync.Mutex
	next    *des.Timer // the pending tick
	stopped bool
}

// Monitor builds a health monitor over the fleet whose ticks are events on
// sim: probes fire at exact simulated times, in deterministic order, which
// is what makes clustersim's failure scenarios byte-identical across runs.
// The loop is not started until Start is called.
func (f *Fleet) Monitor(sim *des.Sim, cfg MonitorConfig) (*Monitor, error) {
	if cfg.Probe == nil {
		//numalint:ignore sentinelwrap construction-time misuse, never reaches the wire path
		return nil, fmt.Errorf("fleet: monitor needs a probe function")
	}
	return &Monitor{f: f, cfg: cfg, sim: sim}, nil
}

// Start schedules the first probe tick, one interval from now. The
// context bounds the fleet calls each tick makes (failover passes
// included); cancelling it makes subsequent ticks no-ops but does not
// unschedule them — call Stop for that.
func (m *Monitor) Start(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped || m.next != nil {
		return
	}
	m.next = m.sim.After(m.cfg.interval(), func() { m.tick(ctx) })
}

// Stop ends the loop: the pending tick is cancelled and no further ticks
// are scheduled. Safe to call more than once.
func (m *Monitor) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	m.next.Cancel()
	m.next = nil
}

// tick runs one probe round and reschedules itself.
func (m *Monitor) tick(ctx context.Context) {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.next = nil
	m.mu.Unlock()

	if ctx.Err() != nil {
		return
	}
	if m.cfg.Until != nil && !m.cfg.Until() {
		return
	}

	for _, name := range m.f.Names() {
		before, ok := m.f.HealthOf(name)
		if !ok {
			continue // removed between Names and now
		}
		if m.cfg.Probe(name) {
			if before == Dead {
				// The machine answers again: Revive fences the stale
				// books and readmits it.
				fenced, err := m.f.Revive(ctx, name)
				if m.cfg.OnRejoin != nil {
					m.cfg.OnRejoin(name, fenced, err)
				}
				if err == nil && m.cfg.OnTransition != nil {
					m.cfg.OnTransition(name, Dead, Healthy, nil, nil)
				}
				continue
			}
			after, err := m.f.Heartbeat(name)
			if err == nil && after != before && m.cfg.OnTransition != nil {
				m.cfg.OnTransition(name, before, after, nil, nil)
			}
			continue
		}
		after, rep, err := m.f.MissProbe(ctx, name)
		if after != before && m.cfg.OnTransition != nil {
			m.cfg.OnTransition(name, before, after, rep, err)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	m.next = m.sim.After(m.cfg.interval(), func() { m.tick(ctx) })
}
