package photon

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

// exportedWithoutConsumer is the allowlist of TestInternalExportsHaveConsumers:
// exported internal/* identifiers no non-test code refers to, each with
// the reason it stays.
var exportedWithoutConsumer = map[string]string{
	// Oracles and evidence: what tests and documents compare against.
	"farm.SerialGridDigest": "reference implementation: the farm tests compare the supervised grid digest against this serial fold",
	"ptrace.DecodeRecords":  "reads the FuzzAssemble corpus; the fuzz target's only way from bytes to records",
	"check.AuditSpans":      "the span-algebra oracle of TestSpanInvariantBattery, CI's span battery",
	"exp.Replicate":         "EXPERIMENTS.md's seed-robustness statement (cross-seed latency spread < 10%) is measured through it (TestReplicateStability)",
}

// stdInterfaceMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, errors.Unwrap, sort.Interface,
// flag.Value, json.Marshaler), so no selector in this tree names them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true, "Swap": true,
	"Set": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestInternalExportsHaveConsumers parses the tree and fails when an
// exported internal/* function, method, type, variable or constant is
// named by no non-test code outside its own declaration: such a symbol is
// API surface only its own tests keep alive. The match is by name
// (go/parser, no type information), so it errs towards silence: a method
// counts as used when any selector, or any interface declared in the
// tree, carries its name. Struct fields are not checked.
func TestInternalExportsHaveConsumers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key      string // pkg.Name or pkg.Type.Method
		name     string
		pkg      string
		method   bool
		from, to token.Pos
	}
	var decls []decl
	var files []*ast.File
	filePkg := map[*ast.File]string{}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		filePkg[f] = dir
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		add := func(key string, id *ast.Ident, method bool, n ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + "." + key, id.Name, dir, method, n.Pos(), n.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Name, false, d)
					continue
				}
				recv := d.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add(id.Name+"."+d.Name.Name, d.Name, true, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name, false, spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id, false, id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every use of a name: plain identifiers per package directory,
	// selectors and interface methods tree-wide.
	type use struct {
		pos token.Pos
		dir string
	}
	idents := map[string][]use{}
	selectors := map[string][]use{}
	ifaceMethods := map[string]bool{}
	for _, f := range files {
		dir := filePkg[f]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], use{n.Sel.Pos(), dir})
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Ident:
				idents[n.Name] = append(idents[n.Name], use{n.Pos(), dir})
			}
			return true
		})
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		outside := func(uses []use, samePkgOnly bool) bool {
			for _, u := range uses {
				if (u.pos < d.from || u.pos >= d.to) && (!samePkgOnly || u.dir == d.pkg) {
					return true
				}
			}
			return false
		}
		used := outside(selectors[d.name], false)
		if d.method {
			used = used || ifaceMethods[d.name] || stdInterfaceMethods[d.name]
		} else {
			used = used || outside(idents[d.name], true)
		}
		seen[d.key] = true
		if _, allowed := exportedWithoutConsumer[d.key]; used && allowed {
			t.Errorf("%s is allowlisted but has a non-test consumer: drop its allowlist entry", d.key)
		} else if !used && !allowed {
			dead = append(dead, d.key)
		}
	}
	for key := range exportedWithoutConsumer {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported internal identifier", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: exported from internal/ but referenced by no non-test code — delete it, unexport it, or allowlist it with a reason", key)
	}
}
