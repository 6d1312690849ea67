package main

// Two rules of the module's shape, held as tests: the trusted base stays
// within trustedBudget, and the store is reached only through kernel.Pager.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTrustedBaseWithinBudget fails when the trusted subsystems' code lines,
// counted as the command counts them, pass trustedBudget.
func TestTrustedBaseWithinBudget(t *testing.T) {
	total := 0
	for dir := range trusted {
		code, _ := countLines(filepath.Join("..", "..", dir))
		if code == 0 {
			t.Fatalf("%s holds no code: the count reads nothing", dir)
		}
		total += code
	}
	if total > trustedBudget {
		t.Fatalf("the trusted base is %d lines, %d over its budget of %d; shrink it or raise trustedBudget", total, total-trustedBudget, trustedBudget)
	}
}

// storeHooks are the kernel-to-store hooks the Pager replaced.
var storeHooks = map[string]bool{"Syncer": true, "SnapshotSink": true, "SetSyncer": true, "SetSnapshotSink": true}

// TestOnePersistencePath: among the Unix library's non-test files only
// unixlib.go imports the store, and no non-test file of the module names a
// kernel-to-store hook.  Test inputs (testdata) and dot directories are not
// the module's code.
func TestOnePersistencePath(t *testing.T) {
	root := filepath.Join("..", "..")
	unixlib := filepath.Join(root, "internal", "unixlib")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == modulePath+"/internal/store" && filepath.Dir(p) == unixlib && filepath.Base(p) != "unixlib.go" {
				t.Errorf("%s imports the store; only unixlib.go may, and it reaches the store through kernel.Pager", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && storeHooks[id.Name] {
				t.Errorf("%s names %s: the store is reached only through kernel.Pager", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d files; the check reads nothing", files)
	}
}
