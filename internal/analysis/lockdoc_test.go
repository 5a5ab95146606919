package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lockInDoc matches one lock of DESIGN.md's hierarchy sentence:
// "`fleet.mu` rank 10 (noblock)" or "`sched.Tables.mu` 35".
var lockInDoc = regexp.MustCompile("`([^`]+)`\\s+(?:rank\\s+)?(\\d+)(\\s+\\(noblock\\))?")

func lockString(name, rank string, noblock bool) string {
	if noblock {
		return fmt.Sprintf("%s rank=%s noblock", name, rank)
	}
	return fmt.Sprintf("%s rank=%s", name, rank)
}

// TestLockRanksDocumented holds DESIGN.md's "Current hierarchy:" sentence to
// the tree's //numalint:locks annotations (testdata aside): the same locks,
// by name, rank and noblock, outermost first.
func TestLockRanksDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sentence, ok := strings.Cut(string(design), "Current hierarchy:")
	if !ok {
		t.Fatal(`DESIGN.md has no "Current hierarchy:" sentence`)
	}
	sentence, _, ok = strings.Cut(sentence, "outermost first")
	if !ok {
		t.Fatal(`DESIGN.md's "Current hierarchy:" sentence does not end in "outermost first"`)
	}
	var documented []string
	for _, m := range lockInDoc.FindAllStringSubmatch(sentence, -1) {
		documented = append(documented, lockString(m[1], m[2], m[3] != ""))
	}

	const root = "../.."
	fset := token.NewFileSet()
	var locks []LockDecl
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		ann := ParseAnnotations(&Package{Fset: fset, Files: []*ast.File{f}})
		if len(ann.Bad) > 0 {
			return fmt.Errorf("%s: %s", fset.Position(ann.Bad[0].Pos), ann.Bad[0].Message)
		}
		locks = append(locks, ann.Locks...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(locks, func(a, b LockDecl) int { return cmp.Compare(a.Rank, b.Rank) })
	var annotated []string
	for _, l := range locks {
		annotated = append(annotated, lockString(l.Name, fmt.Sprint(l.Rank), l.NoBlock))
	}
	if !slices.Equal(documented, annotated) {
		t.Errorf("DESIGN.md's lock hierarchy is not the tree's:\n doc  %q\n tree %q", documented, annotated)
	}
}
