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

// TestDecisionRecordsAreTyped enforces the matching rule for the
// decision log: in the packages that record decisions on the hot path
// (internal/cluster, internal/hypervisor), no fmt call may build part
// of a decision.Record literal or an argument to a ring's Add. Records
// carry constant formats and typed operands and are formatted only
// when read; a Sprintf there would put the per-record string work
// back on every route, boost and preemption.
func TestDecisionRecordsAreTyped(t *testing.T) {
	fset := token.NewFileSet()
	records, adds := 0, 0
	for _, pkg := range []string{"cluster", "hypervisor"} {
		dir := filepath.Join("..", pkg)
		entries, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range entries {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			noFmt := func(n ast.Node, what string) {
				ast.Inspect(n, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isSelector(call.Fun, "fmt", "") {
						t.Errorf("%s: fmt call inside a %s", fset.Position(call.Pos()), what)
					}
					return true
				})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isSelector(n.Type, "decision", "Record") {
						records++
						noFmt(n, "decision.Record literal")
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
						adds++
						for _, a := range n.Args {
							noFmt(a, "ring Add argument")
						}
					}
				}
				return true
			})
		}
	}
	if records < 10 || adds < 10 {
		t.Fatalf("checked only %d record literals and %d Add calls: the walk missed the producers", records, adds)
	}
}

// isSelector reports whether e is the qualified identifier pkg.name
// (any name in pkg when name is empty).
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || name != "" && sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
