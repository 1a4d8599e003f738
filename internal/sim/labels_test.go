package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// labelArg maps each scheduling method to its arity and the index of
// its label argument.
var labelArg = map[string]struct{ arity, label int }{
	"At":           {3, 1},
	"After":        {3, 1},
	"Every":        {3, 1},
	"Post":         {5, 3},
	"AtBarrier":    {3, 1},
	"EveryBarrier": {3, 1},
}

// TestEventLabelsAreConstant enforces the hot-path rule that every
// event label outside this package is a string literal. The engine
// never stores a label, so building one per event ("ple-"+v.Name())
// is pure allocation on the hottest path in the simulator. Package sim
// itself is exempt: it forwards its callers' labels.
func TestEventLabelsAreConstant(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata", "sim":
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := labelArg[sel.Sel.Name]
			if !ok || len(call.Args) != arg.arity {
				return true
			}
			checked++
			if lit, ok := call.Args[arg.label].(*ast.BasicLit); !ok || lit.Kind != token.STRING {
				t.Errorf("%s: %s label is not a string literal", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 20 {
		t.Fatalf("checked only %d scheduling calls: the walk missed the code base", checked)
	}
}
