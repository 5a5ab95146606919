// The repo-wide analyzer configuration used by cmd/numalint and `make
// lint`. Scopes name import paths, not directories: determinism covers the
// packages whose byte-identical output the parity suites depend on, and
// sentinelwrap covers the packages whose errors can reach the wire.
package analysis

// DeterminismScope is the set of packages required to be deterministic.
var DeterminismScope = []string{
	"repro/internal/des",
	"repro/internal/workloads",
	"repro/internal/sched",
	"repro/internal/fleet",
	"repro/internal/perfsim",
	"repro/cmd/clustersim",
	"repro/cmd/paperrepro",
}

// SentinelScope is the set of packages whose errors cross the facade and
// must keep errors.Is working across the wire.
var SentinelScope = []string{
	"repro/internal/fleet",
	"repro/internal/sched",
	"repro/internal/wire",
}

// DefaultAnalyzers returns the numalint suite with the repo's scopes.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		BlockUnderLock,
		NoAlloc,
		NewDeterminism(DeterminismScope),
		NewSentinelWrap(SentinelScope),
	}
}
