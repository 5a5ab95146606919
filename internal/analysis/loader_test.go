package analysis

import (
	"go/types"
	"testing"
)

// TestLoadRepo type-checks the whole module through the loader: every
// target package must come back clean, and dependency-first ordering must
// give each package exactly one types.Package identity (type errors of the
// "X is not X" kind are the symptom when it does not), which Import hands
// out too. The default suite then runs over it as `make lint` does: it
// reports nothing, and a lock summary is found across packages — Engine.Place
// is the sched.Scheduler.Place the Engine embeds, and the root package reads
// its summary, machine lock and cache lock, as sched's exported fact.
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns(l.moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from ./...; expected the full module", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: %d type errors, first: %v", p.Path, len(p.TypeErrors), p.TypeErrors[0])
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: loaded without types", p.Path)
		}
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	if imp, err := l.Import("repro/internal/nperr"); err != nil || imp != byPath["repro/internal/nperr"].Types {
		t.Errorf("Import(nperr) = %p, %v; want the loaded package %p", imp, err, byPath["repro/internal/nperr"].Types)
	}

	r := NewRunner()
	diags, err := r.Run(l.Fset, pkgs, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	root := byPath["repro"].Types
	engine := root.Scope().Lookup("Engine").Type()
	place, _, _ := types.LookupFieldOrMethod(types.NewPointer(engine), false, root, "Place")
	fact, ok := (&Pass{runner: r}).FactOf(LockSummary, place)
	if !ok {
		t.Fatal("no lock summary for Engine.Place")
	}
	for _, lock := range []string{"sched.Scheduler.mu", "sched.cowCache.mu"} {
		if _, ok := fact.(*FuncSummary).Acquires["repro/internal/sched."+lock]; !ok {
			t.Errorf("Engine.Place's summary misses %s: %+v", lock, fact.(*FuncSummary).Acquires)
		}
	}
}
