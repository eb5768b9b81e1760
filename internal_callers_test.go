package dbre

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are called by the standard library through an
// interface (fmt.Stringer, error, errors.Unwrap, json.Unmarshaler,
// http.Handler), so no selector in this repository names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// testOnlyAllowed lists the exported internal/ functions and methods that
// only tests call but that stay in production packages, each with the
// reason. Entries are "<dir>.<Func>" or "<dir>.<Type>.<Method>". Some of
// them share a name with a method production calls, so the scan cannot
// flag them; they are listed so every kept test-only export has its
// reason here.
var testOnlyAllowed = map[string]string{
	"internal/table.Table.InsertUnchecked": "plants constraint violations for the tests of six packages; every production insert is checked",
	"internal/table.Table.DistinctCount":   "the ‖r[X]‖ reference the stats and storage tests compare cached and lazily restored counts against",
	"internal/table.Table.Value":           "reads one cell for the tests of several packages without materializing the row",
	"internal/value.Value.Key":             "the per-value encoding reference the dictionary and projection tests compare against",
	"internal/value.Value.Compare":         "the total order the differential table tests sort rows by",
	"internal/value.Value.Hash":            "the value hash the projection tests sample rows with",
	"internal/relation.AttrSet.Subsets":    "enumerates the proper subsets the candidate-key property test checks minimality over",
	"internal/obs.SpanRecord.SpanNames":    "lists a parsed JSON trace's span names for the obs and cmd/dbre trace tests",
	"internal/deps.JoinSet.Contains":       "membership in the paper's Q, asked by the extraction tests of three packages",
}

// TestInternalHasNoTestOnlyExports fails when an exported function or
// method of an internal/ package is referenced by no non-test code of
// the repository (e2ebench/ included). A function counts as used when
// another package selects it or its own package names it outside its
// declaration; a method counts as used when any selector names it.
func TestInternalHasNoTestOnlyExports(t *testing.T) {
	unused, declared, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s is exported but no non-test code references it: delete it, move it into the test, or allowlist it with a reason", name)
		}
	}
	for name := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("allowlisted %s is not declared: remove it from testOnlyAllowed", name)
		}
	}
}

// TestTestOnlyExportsFlagsAFixture runs the scan on a small tree: a
// function only a test calls, one only itself calls and a method no
// selector names are flagged; a use from another package, a bare use in
// the own package, an implicit String and a file under testdata/ behave
// as the guard's rules say.
func TestTestOnlyExportsFlagsAFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/p/p.go": "package p\n\nfunc Used() int { return helper() }\nfunc helper() int { return Local() }\n" +
			"func Local() int { return 1 }\nfunc Dead() int { return 2 }\nfunc Rec(n int) int { return Rec(n) }\n\ntype T struct{}\n\n" +
			"func (T) Called() {}\nfunc (T) Uncalled() {}\nfunc (T) String() string { return \"\" }\n",
		"internal/p/p_test.go":  "package p\n\nfunc use() { Dead(); T{}.Uncalled() }\n",
		"cmd/x/main.go":         "package main\n\nimport q \"dbre/internal/p\"\n\nfunc main() { q.Used(); q.T{}.Called() }\n",
		"testdata/skip/skip.go": "package skip\n\nimport \"dbre/internal/p\"\n\nfunc f() { p.Dead() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := testOnlyExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := "internal/p.Dead internal/p.Rec internal/p.T.Uncalled"; strings.Join(got, " ") != want {
		t.Fatalf("testOnlyExports = %v, want %s", got, want)
	}
}

// testOnlyExports returns, sorted, the exported functions and methods
// declared in root/internal/ that no non-test .go file under root
// references, and the set of all of them. Directories named testdata or
// starting with "." are skipped.
func testOnlyExports(root string) (unused []string, declared map[string]bool, err error) {
	type file struct {
		dir string
		ast *ast.File
	}
	var parsed []file
	pkgName := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		parsed = append(parsed, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	decls := map[string]string{} // "<dir>.<Func>" or "<dir>.<Type>.<Method>" -> method name, "" for a function
	used := map[string]bool{}    // "<dir>.<Func>" referenced from non-test code
	selected := map[string]bool{}
	for _, f := range parsed {
		imports := map[string]string{} // local name -> dir of an internal/ package
		for _, imp := range f.ast.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "dbre/")
			if !ok || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		notRefs := map[*ast.Ident]bool{} // declared names and selected names
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notRefs[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(f.dir, "internal/") {
				continue
			}
			if fn.Recv == nil {
				decls[f.dir+"."+fn.Name.Name] = ""
			} else if !implicitMethods[fn.Name.Name] {
				decls[f.dir+"."+recvName(fn.Recv.List[0].Type)+"."+fn.Name.Name] = fn.Name.Name
			}
		}
		for _, d := range f.ast.Decls {
			self := "" // a recursive call does not count as a reference
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					notRefs[n.Sel] = true
					if n.Sel.Name != self {
						selected[n.Sel.Name] = true
					}
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if !notRefs[n] && n.Name != self {
						used[f.dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	declared = map[string]bool{}
	for name, method := range decls {
		declared[name] = true
		if method == "" && !used[name] || method != "" && !selected[method] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused, declared, nil
}

// recvName returns the type name of a method receiver, T for T or *T.
// No internal/ type is generic.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
