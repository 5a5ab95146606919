package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// bookFields are the fleet's books, by field name: Fleet's tenant map, next
// ID and seven counters; each member's tenant count, drain flag, health and
// miss count; each tenantRec's home, backend-local ID and assignment. A
// tenantRec's workload and vCPU count are set once, by its literal, which is
// guarded as a write of its own.
var bookFields = map[string]bool{
	"tenants": true, "nextID": true,
	"admitted": true, "rejected": true, "released": true, "moves": true,
	"failovers": true, "failedOver": true, "migrationSeconds": true,
	"drained": true, "health": true, "misses": true,
	"mem": true, "engineID": true, "assign": true,
}

// bookStructs declare the book fields; no other struct of the package may
// declare one, so a match by name is a match.
var bookStructs = map[string]bool{"Fleet": true, "member": true, "tenantRec": true}

// bookWriters are the functions that may write the books: a record's one
// meaning, live and replayed, and the snapshot install.
var bookWriters = []string{"bookLocked", "applyStateLocked"}

// TestBooksHaveOneWriter parses the package's program files and fails on any
// write to the books — an assignment, ++ or --, delete, or a tenantRec literal
// — outside bookWriters: a live mutation and its replay must change the books
// through bookLocked, or the two can drift apart (a missed probe once changed
// a member's miss count live and not on replay).
func TestBooksHaveOneWriter(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}

	declared := map[string]bool{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if !bookFields[name.Name] {
						continue
					}
					if !bookStructs[ts.Name.Name] {
						t.Errorf("%s: struct %s declares book field name %s: the guard matches by name", fset.Position(name.Pos()), ts.Name.Name, name.Name)
					}
					declared[name.Name] = true
				}
			}
			return true
		})
	}
	for name := range bookFields {
		if !declared[name] {
			t.Errorf("book field %s is declared by none of %v", name, bookStructs)
		}
	}

	writes := map[string]int{}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, w := range bookWrites(fd.Body) {
				writes[fd.Name.Name]++
				if !slices.Contains(bookWriters, fd.Name.Name) {
					t.Errorf("%s: %s writes the books (%s) outside %v", fset.Position(w.pos), fd.Name.Name, w.what, bookWriters)
				}
			}
		}
	}
	for _, fn := range bookWriters {
		if writes[fn] == 0 {
			t.Errorf("%s writes no book field: the guard is looking at the wrong functions", fn)
		}
	}
}

type bookWrite struct {
	pos  token.Pos
	what string
}

// bookWrites lists body's writes to book fields.
func bookWrites(body *ast.BlockStmt) []bookWrite {
	var out []bookWrite
	write := func(e ast.Expr, how string) {
		if name, ok := bookField(e); ok {
			out = append(out, bookWrite{e.Pos(), how + " " + name})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				write(lhs, x.Tok.String())
			}
		case *ast.IncDecStmt:
			write(x.X, x.Tok.String())
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				write(x.Args[0], "delete")
			}
		case *ast.CompositeLit:
			if id, ok := x.Type.(*ast.Ident); ok && id.Name == "tenantRec" {
				out = append(out, bookWrite{x.Pos(), "tenantRec literal"})
			}
		}
		return true
	})
	return out
}

// bookField reports the book field e writes, through any index or
// dereference: f.tenants[id] writes tenants.
func bookField(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name, bookFields[x.Sel.Name]
		default:
			return "", false
		}
	}
}
