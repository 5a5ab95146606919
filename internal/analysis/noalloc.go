// noalloc guards the zero-alloc hot paths that are otherwise only enforced
// by runtime AllocsPerRun tests: WAL Append, event publish, the wire
// encoders, PredictInto and the admit scratch path. A function annotated
// //numalint:noalloc is flagged for allocation-forcing constructs so a
// refactor can't quietly re-introduce garbage that those tests only catch
// after the fact:
//
//   - calls into fmt (Sprintf/Errorf/… always allocate)
//   - string concatenation and string<->[]byte/[]rune/int conversions
//   - map and slice composite literals, make, new
//   - function literals that capture enclosing variables (heap closure)
//   - call arguments boxed into interface parameters
//   - append growth on a slice the function created without capacity
//
// The check is intraprocedural by design: annotate the helpers a hot path
// relies on (the encoders do) and the analyzer covers each body; cold
// error-latch lines inside a hot function carry //numalint:ignore with a
// reason.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc reports allocation-forcing constructs in annotated functions.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //numalint:noalloc must not contain allocation-forcing constructs",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) (any, error) {
	for fd := range pass.Ann.NoAlloc {
		if fd.Body == nil {
			continue
		}
		c := &allocChecker{pass: pass, fn: fd}
		c.prealloc = collectUnprealloc(pass, fd.Body)
		ast.Inspect(fd.Body, c.visit)
	}
	return nil, nil
}

type allocChecker struct {
	pass     *Pass
	fn       *ast.FuncDecl
	prealloc map[types.Object]bool // local slices created without capacity
}

func (c *allocChecker) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.BinaryExpr:
		if x.Op == token.ADD && c.isString(x) && !c.isConst(x) {
			c.report(x.Pos(), "string concatenation allocates")
		}
	case *ast.AssignStmt:
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && c.isString(x.Lhs[0]) {
			c.report(x.Pos(), "string concatenation allocates")
		}
	case *ast.CompositeLit:
		tv, ok := c.pass.Info.Types[x]
		if !ok {
			break
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			c.report(x.Pos(), "map literal allocates")
		case *types.Slice:
			c.report(x.Pos(), "slice literal allocates")
		}
	case *ast.FuncLit:
		if ids := capturedVars(c.pass, c.fn, x); len(ids) > 0 {
			c.report(x.Pos(), "closure captures %s and escapes to the heap", ids[0].Name())
		}
		// Keep walking: allocation inside the closure body still runs on
		// the hot path when the closure is invoked here.
	case *ast.CallExpr:
		c.visitCall(x)
	}
	return true
}

func (c *allocChecker) visitCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := c.pass.Info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.checkAppend(call)
			}
			return
		}
	}
	if fn := c.staticCallee(fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "call to fmt.%s allocates", fn.Name())
		return
	}
	c.checkBoxing(call)
}

func (c *allocChecker) staticCallee(fun ast.Expr) *types.Func {
	switch e := fun.(type) {
	case *ast.Ident:
		fn, _ := c.pass.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkConversion flags conversions that copy: string <-> []byte/[]rune
// and integer -> string.
func (c *allocChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	fromTV, ok := c.pass.Info.Types[call.Args[0]]
	if !ok || fromTV.Value != nil { // constant conversions fold
		return
	}
	from := fromTV.Type
	if isString(to) && (isByteOrRuneSlice(from) || isInteger(from)) {
		c.report(call.Pos(), "conversion to string allocates")
	}
	if isByteOrRuneSlice(to) && isString(from) {
		c.report(call.Pos(), "conversion from string allocates")
	}
}

// checkBoxing flags concrete arguments passed to interface parameters.
func (c *allocChecker) checkBoxing(call *ast.CallExpr) {
	tv, ok := c.pass.Info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // instantiation decides; generic stencils don't box
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := c.pass.Info.Types[arg]
		if !ok || at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		// Boxing is free only for zero-size values and untyped constants
		// the compiler can intern; be conservative and flag the rest.
		c.report(arg.Pos(), "argument boxes %s into interface %s", at.Type, pt)
	}
}

// checkAppend flags growth of a slice this function created without
// capacity; appends into caller-owned slices (parameters, fields) are the
// encoders' amortized-growth idiom and stay legal.
func (c *allocChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := c.pass.Info.Uses[id]; obj != nil && c.prealloc[obj] {
			c.report(call.Pos(), "append grows %s, which was created without capacity", id.Name)
		}
	}
}

func (c *allocChecker) report(pos token.Pos, format string, args ...any) {
	c.pass.Report(pos, format+" (in //numalint:noalloc function %s)", append(args, c.fn.Name.Name)...)
}

func (c *allocChecker) isString(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	return ok && isString(tv.Type)
}

func (c *allocChecker) isConst(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// collectUnprealloc finds local slice variables defined from a composite
// literal or a capacity-less make.
func collectUnprealloc(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		// `var xs []T` with no initializer: a nil slice every append grows.
		if decl, ok := n.(*ast.DeclStmt); ok {
			gd, ok := decl.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						out[obj] = true
					}
				}
			}
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				continue
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CompositeLit:
				out[obj] = true
			case *ast.CallExpr:
				if fid, ok := rhs.Fun.(*ast.Ident); ok {
					if b, ok := pass.Info.Uses[fid].(*types.Builtin); ok && b.Name() == "make" && len(rhs.Args) < 3 {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// capturedVars returns variables the literal references that are declared
// in the enclosing function but outside the literal.
func capturedVars(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= fn.Pos() && v.Pos() < lit.Pos() {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}
