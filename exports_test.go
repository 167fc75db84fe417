package photon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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
	"check.AuditSpans":      "the span-algebra oracle of TestSpanInvariantBattery, CI's span battery",
	"exp.Replicate":         "EXPERIMENTS.md's seed-robustness statement (cross-seed latency spread < 10%) is measured through it (TestReplicateStability)",

	// Facade API: reachable through photon.Injector, driven by hand.
	"traffic.Injector.Stop": "halts injection before a hand-driven drain of a photon.Injector; TestStopMidBlock pins the tape prefix a mid-block stop keeps",
}

// stdInterfaceMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, errors.Unwrap, sort.Interface,
// flag.Value, json.Marshaler), so no selector in this tree names them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true, "Swap": true,
	"Set": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// parseTree parses every non-test Go file of the module (testdata and
// dot-directories skipped) and returns the files with each one's package
// directory, slash-separated and relative to the root.
func parseTree(t *testing.T) ([]*ast.File, map[*ast.File]string) {
	t.Helper()
	fset := token.NewFileSet()
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
		filePkg[f] = filepath.ToSlash(filepath.Dir(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, filePkg
}

// TestInternalExportsHaveConsumers parses the tree and fails when an
// exported internal/* function, method, type, variable or constant is
// named by no non-test code outside its own declaration: such a symbol is
// API surface only its own tests keep alive. The match is by name
// (go/parser, no type information), so it errs towards silence: a method
// counts as used when any selector, or any interface declared in the
// tree, carries its name. Struct fields are not checked here;
// TestOptionFieldsHaveSetters covers those of the option structs.
func TestInternalExportsHaveConsumers(t *testing.T) {
	files, filePkg := parseTree(t)
	type decl struct {
		key      string // pkg.Name or pkg.Type.Method
		name     string
		pkg      string
		method   bool
		from, to token.Pos
	}
	var decls []decl
	for _, f := range files {
		dir := filePkg[f]
		if !strings.HasPrefix(dir, "internal/") {
			continue
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

// optionStructs are the option structs whose exported fields
// TestOptionFieldsHaveSetters checks, as pkg.Type under internal/.
var optionStructs = []string{
	"core.Config", "core.RecoveryConfig", "arbiter.FairnessConfig", "fault.Config", "fault.ClassConfig",
	"swmr.Config", "farm.Config", "cpu.Params", "ptrace.StreamConfig", "exp.Options",
	"check.Point", "check.Drive", "check.Grid",
}

// fieldWithoutSetter is the allowlist of TestOptionFieldsHaveSetters:
// option-struct fields no non-test code sets, each with the test or
// battery that needs the knob. There is no third kind: a field no test
// needs is deleted, not queued ("pending: ..." entries fail the test).
var fieldWithoutSetter = map[string]string{
	// Knobs a test or battery turns.
	"core.Config.QueueCap":               "the conservation audit's QueueRejected term: TestConservationBoundedQueues and TestBoundedQueueThrottles bound the output queues through it",
	"core.RecoveryConfig.WatchdogWindow": "TestWatchdogDuplicateGuard drives the duplicate-token guard through a short window",
	"ptrace.StreamConfig.RetireAfter":    "TestStreamMatchesBatch, TestStreamMaxLiveExact and FuzzAssemble retire aggressively to exercise the tombstone queue; every run keeps the 1024-cycle default",
	"swmr.Config.RxPorts":                "TestRxPortContentionThrottles and TestRxPortsScaleThroughput: receiver-port contention is the SWMR model's one free dimension",

	// Constants of the paper's configuration: DefaultConfig/DefaultParams
	// sets them once, the engines and the twin read them.
	"core.Config.EjectLatency":   "model constant (1-cycle electrical ejection, DESIGN's timing model); FuzzConfigValidate varies it",
	"core.Config.EjectRate":      "model constant (home buffer drains 1 packet/cycle); TestEjectRateAboveOne and BenchmarkAblationEjectRate vary it",
	"core.Config.RouterPipeline": "model constant (2-cycle injection pipeline); FuzzConfigValidate varies it",
	"cpu.Params.MSHRs":           "model constant (4 MSHRs/core, §V-B); TestParamsValidation guards it",
	"cpu.Params.IssueWidth":      "model constant of the §V-B core (also the IPC ceiling TestFacadeTraceAndCMP checks); TestParamsValidation guards it",
	"cpu.Params.BankLatency":     "model constant of the S-NUCA L2; TestParamsValidation guards it",
	"cpu.Params.BanksPerNode":    "model constant of the S-NUCA L2; TestParamsValidation guards it",
	"swmr.Config.EjectRate":      "model constant mirrored from core.Config; TestConfigValidation guards it",
}

// TestOptionFieldsHaveSetters extends the export census from functions
// to the fields of option structs: a field that no non-test code sets —
// outside the default-filling functions of its own package (DefaultConfig,
// withDefaults, ...) — is a knob only tests turn. Like the census above it
// matches by name: `x.F = v` and `&x.F` count for every listed struct with
// a field F; a keyed literal counts for the struct it names. An allowlist
// entry must name the test or battery that needs the knob; one marked
// "pending:" fails, so a field without a consumer is deleted, not queued.
func TestOptionFieldsHaveSetters(t *testing.T) {
	files, filePkg := parseTree(t)
	fields := map[string][]string{} // field name -> the pkg.Type keys declaring it
	declared := map[string]bool{}   // pkg.Type.Field
	for _, f := range files {
		pkg := strings.TrimPrefix(filePkg[f], "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			key := pkg + "." + ts.Name.Name
			if !ok || !slices.Contains(optionStructs, key) {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						fields[id.Name] = append(fields[id.Name], key)
						declared[key+"."+id.Name] = true
					}
				}
			}
			return false
		})
	}
	for _, key := range optionStructs {
		found := false
		for d := range declared {
			found = found || strings.HasPrefix(d, key+".")
		}
		if !found {
			t.Errorf("option struct %s not found (or it has no exported field)", key)
		}
	}

	set := map[string]bool{}
	for _, f := range files {
		pkg := strings.TrimPrefix(filePkg[f], "internal/")
		for _, d := range f.Decls {
			// Default-filling code of a struct's own package does not
			// count as turning its knobs: a function, or an assigned
			// value, with "default" in its name.
			isDefault := func(name string) bool { return strings.Contains(strings.ToLower(name), "default") }
			fn, _ := d.(*ast.FuncDecl)
			inDefaultFunc := fn != nil && isDefault(fn.Name.Name)
			mark := func(structKey, field string, defaultValue bool) {
				if !((inDefaultFunc || defaultValue) && strings.HasPrefix(structKey, pkg+".")) {
					set[structKey+"."+field] = true
				}
			}
			// Setting x.A.B sets A as well as B.
			byName := func(e ast.Expr, defaultValue bool) {
				for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
					for _, key := range fields[sel.Sel.Name] {
						mark(key, sel.Sel.Name, defaultValue)
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					id, _ := n.Rhs[0].(*ast.Ident)
					for _, lhs := range n.Lhs {
						byName(lhs, id != nil && isDefault(id.Name))
					}
				case *ast.IncDecStmt:
					byName(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						byName(n.X, false)
					}
				case *ast.CompositeLit:
					key := ""
					switch typ := n.Type.(type) {
					case *ast.Ident:
						key = pkg + "." + typ.Name
					case *ast.SelectorExpr:
						if x, ok := typ.X.(*ast.Ident); ok {
							key = x.Name + "." + typ.Sel.Name
						}
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && declared[key+"."+id.Name] {
								mark(key, id.Name, false)
							}
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for key := range declared {
		if _, allowed := fieldWithoutSetter[key]; set[key] && allowed {
			t.Errorf("%s is allowlisted but non-test code sets it: drop its allowlist entry", key)
		} else if !set[key] && !allowed {
			unset = append(unset, key)
		}
	}
	for key, reason := range fieldWithoutSetter {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported field of an option struct", key)
		}
		if strings.HasPrefix(reason, "pending:") {
			t.Errorf("%s is allowlisted as pending: name the test that needs the knob, or delete the field", key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no non-test code sets this option field — delete the knob, or allowlist it with the test that needs it", key)
	}
}
