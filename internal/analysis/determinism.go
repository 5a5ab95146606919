// determinism guards the property that makes clustersim and paperrepro
// byte-identical and the WAL/trace parity suites meaningful: simulation
// and control-plane packages draw randomness only from internal/xrand's
// explicitly seeded generators, never read the wall clock, and never let
// map iteration order leak into output. Three rules, applied to the
// packages numalint scopes it to (internal/des, internal/workloads,
// internal/sched, internal/fleet, internal/perfsim, cmd/clustersim,
// cmd/paperrepro):
//
//   - importing math/rand or math/rand/v2 is banned (use internal/xrand)
//   - time.Now and time.Since are banned (simulated time comes from the
//     DES clock)
//   - ranging over a map while appending to an outer slice or writing
//     output is banned, unless the collected slice is sorted immediately
//     after the loop (the collect-then-sort idiom stays legal)
package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// NewDeterminism builds the analyzer scoped to the given package paths
// (nil means every package — the golden tests use that).
func NewDeterminism(scope []string) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "simulation packages must be deterministic: xrand only, no wall clock, no map-order-dependent output",
		Run: func(pass *Pass) (any, error) {
			if !inScope(scope, pass.Pkg.Path) {
				return nil, nil
			}
			runDeterminism(pass)
			return nil, nil
		},
	}
}

func inScope(scope []string, path string) bool {
	if scope == nil {
		return true
	}
	for _, s := range scope {
		if s == path {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Report(imp.Pos(), "import of %s is non-deterministic across runs; use internal/xrand's seeded generators", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[x.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
					if fn.Name() == "Now" || fn.Name() == "Since" {
						pass.Report(x.Pos(), "time.%s reads the wall clock; simulated time must come from the DES clock", fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, x)
			}
			return true
		})
	}
}

// checkMapRange flags map iterations whose body feeds order-sensitive
// sinks. Collecting into a slice that is sorted right after the loop —
// the tenantIDsLocked idiom — is the sanctioned pattern and stays clean.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
					checkRangeAppend(pass, rs, x)
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
					if fn.Pkg().Path() == "fmt" || fn.Name() == "WriteString" || fn.Name() == "WriteByte" {
						pass.Report(x.Pos(), "output written inside map iteration is ordered by map traversal; iterate sorted keys instead")
					}
				}
			}
		}
		return true
	})
}

// checkRangeAppend flags `out = append(out, …)` inside a map range when
// out is declared outside the loop and is not sorted in the statements
// that follow the loop in the same block.
func checkRangeAppend(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return // loop-local accumulator; ordering is the body's business
	}
	if sortedAfter(pass, rs, obj) {
		return
	}
	pass.Report(call.Pos(), "append to %s inside map iteration depends on map order; sort %s after the loop (or iterate sorted keys)", id.Name, id.Name)
}

// sortedAfter reports whether obj is passed to a sort/slices call in a
// statement after rs inside the enclosing block.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, obj types.Object) bool {
	block := enclosingBlock(pass, rs)
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[aid] == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingBlock finds the innermost block statement containing rs.
func enclosingBlock(pass *Pass, rs *ast.RangeStmt) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, f := range pass.Files {
		if rs.Pos() < f.Pos() || rs.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BlockStmt); ok {
				for _, stmt := range b.List {
					if stmt == ast.Stmt(rs) {
						best = b
					}
				}
			}
			return true
		})
	}
	return best
}
