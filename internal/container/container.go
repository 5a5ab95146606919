// Package container provides the virtual-container abstraction of the
// paper's target environment (§3): a workload encapsulated with a fixed
// number of vCPUs, mapped onto hardware threads by the scheduler, and — for
// workloads that support it — reporting a live performance metric the
// placement policy can consume.
package container

import (
	"fmt"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/topology"
)

// Container is one virtual container instance. All state is private: the
// identity fields are fixed at New, and the thread mapping only changes
// through Place. The mapping is shared, not copied: schedulers hand Place the
// pinning their table set shares read-only, and nobody writes to it.
type Container struct {
	id       int
	workload perfsim.Workload
	vcpus    int

	// threads is the current vCPU-to-hardware-thread mapping, read-only; nil
	// while unplaced. pinned records whether the mapping was chosen
	// explicitly (pinned cpuset) or left to the OS.
	threads []topology.ThreadID
	pinned  bool
}

// New creates an unplaced container.
func New(id int, w perfsim.Workload, vcpus int) *Container {
	return &Container{id: id, workload: w, vcpus: vcpus}
}

// ID returns the container's identity.
func (c *Container) ID() int { return c.id }

// Workload returns the container's performance-sensitivity descriptor.
func (c *Container) Workload() perfsim.Workload { return c.workload }

// VCPUs returns the container's fixed vCPU count.
func (c *Container) VCPUs() int { return c.vcpus }

// Place installs a thread mapping. The mapping length must equal VCPUs. The
// container keeps threads itself, so nobody may write to it afterwards.
func (c *Container) Place(threads []topology.ThreadID, pinned bool) error {
	if len(threads) != c.vcpus {
		return fmt.Errorf("container %d: mapping has %d threads, want %d", c.id, len(threads), c.vcpus)
	}
	c.threads = threads
	c.pinned = pinned
	return nil
}

// Unplace removes the current thread mapping, returning the container to
// its initial unplaced state. Schedulers call it when an admission fails
// after the container was already pinned, so a discarded container never
// keeps claiming hardware threads.
func (c *Container) Unplace() {
	c.threads = nil
	c.pinned = false
}

// Placed reports whether the container currently has a mapping.
func (c *Container) Placed() bool { return c.threads != nil }

// Threads returns the current thread mapping (nil while unplaced): the slice
// Place was given, read-only.
func (c *Container) Threads() []topology.ThreadID { return c.threads }

// Pinned reports whether the current mapping was chosen explicitly (pinned
// cpuset) rather than left to the OS.
func (c *Container) Pinned() bool { return c.pinned }

// Observe runs the container alone on machine m in its current mapping and
// returns the throughput sample (the paper's "runs the workload in two
// placements during the first few seconds ... without interrupting the
// workload"). trial selects the measurement-noise draw.
func (c *Container) Observe(m machines.Machine, trial int) (float64, error) {
	if !c.Placed() {
		return 0, fmt.Errorf("container %d: %w", c.id, nperr.ErrNotPlaced)
	}
	return perfsim.Run(m, c.workload, c.threads, trial)
}
