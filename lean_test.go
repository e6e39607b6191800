package rapidnn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// leanAllowlist names the exported functions and methods under internal/
// that no non-test code references, each with the reason it stays.
var leanAllowlist = map[string]string{
	"counting.Apply":               "test oracle: evaluates a shift-add decomposition for the counting tests",
	"counting.Decompose":           "test oracle: the NAF expansion the counting and rna hot-path tests check Weight against",
	"counting.ParallelCount":       "test oracle: the cycle-level counter model the histogram kernels are checked against",
	"tensor.Transpose":             "test oracle: the explicit transpose MatMulTransA/B are checked against",
	"tensor.MatMulInto":            "the buffer-reusing matmul a per-call scratch forward needs (ROADMAP item 7); TestMatMulInto pins it",
	"(*tensor.Tensor).Equal":       "cross-package test fixture: tolerance comparison in the tensor, nn, dataset and composer tests",
	"(*tensor.Tensor).Fill":        "cross-package test fixture: constant inputs in the tensor and nn tests",
	"nn.NewResidualDense":          "cross-package test fixture: the residual recipe of the nn, composer and rna tests",
	"bench.OpenLoop":               "single-class OpenLoopTagged that serve's BenchmarkServeBatching and the loadgen tests drive",
	"(*composer.Composed).Mapped":  "cross-package test probe: composer, rna and serve tests assert a model is mmap-backed",
	"(*isaac.Report).ADCAreaShare": "paper-claim check: the isaac tests assert converters dominate analog PIM area (§1)",
	"(*rollout.Registry).Push":     "the registry's validated publish path; no command exposes it yet, the registry and rollout tests publish through it",
}

// TestInternalExportsAreReferenced is the lean guard: every exported function
// or method under internal/ needs a reference from a non-test file somewhere
// in the tree (perfbench included), or an entry in leanAllowlist. The scan
// matches identifiers by name, so it can miss dead code that shares a name
// with live code, but it never flags a live function.
func TestInternalExportsAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // key → name
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
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
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				own[fn.Name] = true
				if strings.HasPrefix(filepath.ToSlash(path), "internal/") && fn.Name.IsExported() {
					declared[leanKey(f.Name.Name, fn)] = fn.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreferenced []string
	for key, name := range declared {
		if _, ok := leanAllowlist[key]; !ok && !used[name] {
			unreferenced = append(unreferenced, key)
		}
	}
	sort.Strings(unreferenced)
	for _, key := range unreferenced {
		t.Errorf("%s has no non-test reference: delete it, or allowlist it with a reason", key)
	}
	for key := range leanAllowlist {
		if name, ok := declared[key]; !ok || used[name] {
			t.Errorf("allowlisted %s is gone or referenced now: drop its entry", key)
		}
	}
}

// leanKey names a function as "pkg.F", a method as "pkg.T.M" or "(*pkg.T).M".
func leanKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	recv := pkg + "." + typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}
