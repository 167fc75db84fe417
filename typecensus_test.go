//go:build linkcensus

package photon

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// census is the module's non-test code, parsed and type-checked once:
// every package of internal/*, the facade, cmd/*, bench and examples/*,
// in dependency order, all recorded in one types.Info. A module package
// imports the *types.Package checked before it, so each declaration has
// exactly one object and every use resolves to it.
type census struct {
	fset *token.FileSet
	pkgs []*censusPkg
	info *types.Info
}

type censusPkg struct {
	dir   string // slash-separated, relative to the module root: "." is the facade
	short string // the allowlists' prefix: internal/ trimmed, the facade "photon"
	files []*ast.File
	types *types.Package
}

// production reports whether p is held to the censuses: internal/* and
// the facade. cmd/*, bench and examples/* are consumers only.
func (p *censusPkg) production() bool {
	return p.dir == "." || strings.HasPrefix(p.dir, "internal/")
}

var (
	censusOnce sync.Once
	censusMod  *census
	censusErr  error
)

// loadCensus returns the module's census, loading it on first use.
func loadCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() { censusMod, censusErr = newCensus() })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusMod
}

func newCensus() (*census, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// -deps lists every package after its dependencies; -export gives the
	// standard library's compiled export data.
	list := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	c := &census{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	export := map[string]string{}
	std := importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	imp := censusImporter{mod: map[string]*types.Package{}, std: std}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		path, standard, exp, dir, goFiles := f[0], f[1] == "true", f[2], f[3], strings.Fields(f[4])
		if standard {
			export[path] = exp
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		p := &censusPkg{dir: filepath.ToSlash(rel)}
		p.short = strings.TrimPrefix(p.dir, "internal/")
		for _, name := range goFiles {
			file, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, file)
		}
		if p.dir == "." {
			p.short = p.files[0].Name.Name
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, c.fset, p.files, c.info); err != nil {
			return nil, err
		}
		imp.mod[path] = p.types
		c.pkgs = append(c.pkgs, p)
	}
	return c, nil
}

// censusImporter resolves the module's packages to the ones already
// checked and everything else to the standard library's export data.
type censusImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im censusImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// usage is what the census reads off the module's non-test code.
type usage struct {
	read map[*types.Var]bool   // fields read: see scan
	set  map[*types.Var]bool   // fields set outside their package's default-filling code
	used map[types.Object]bool // objects some identifier refers to
	decl map[*types.Var]string // production struct fields, by allowlist name
}

func (c *census) usage() *usage {
	u := &usage{
		read: map[*types.Var]bool{},
		set:  map[*types.Var]bool{},
		used: map[types.Object]bool{},
		decl: map[*types.Var]string{},
	}
	for _, obj := range c.info.Uses {
		u.used[obj] = true
	}
	// A struct compared with == or used as a map key has every field read
	// (exp.pointKey).
	for e, tv := range c.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readValue(m.Key(), u.read)
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			readValue(c.info.Types[b.X].Type, u.read)
		}
	}
	for _, p := range c.pkgs {
		if p.production() {
			c.declareFields(p, u.decl)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				c.scan(p, d, u)
			}
		}
	}
	return u
}

// declareFields records every struct field p declares, named
// pkg.Owner.field after the nearest enclosing type, function or variable.
func (c *census) declareFields(p *censusPkg, decl map[*types.Var]string) {
	var walk func(n ast.Node, owner string)
	walk = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, n.Name.Name)
				return false
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					names := fl.Names
					if len(names) == 0 {
						names = []*ast.Ident{embeddedIdent(fl.Type)}
					}
					for _, id := range names {
						if v, ok := c.info.Defs[id].(*types.Var); ok && id.Name != "_" {
							decl[v] = p.short + "." + owner + "." + id.Name
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				walk(d, funcOwner(d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						walk(vs, vs.Names[0].Name)
					} else {
						walk(spec, "")
					}
				}
			}
		}
	}
}

// scan reads one top-level declaration of p for field reads and writes
// and for calls into encoding/json.
//
// A field selector is a read unless it is the target of an assignment or
// of ++/--: x.f = v, x.f += v and x.f++ write f only. Writing x.a.b
// writes through a only when a is a struct or array value; through a
// pointer, a is read. Taking &x.f counts as a read.
//
// A write counts as setting the field (check options) unless it sits in
// the field's own package inside a function, or assigns a value, whose
// name contains "default": DefaultConfig, withDefaults, cfg.X = defaultX.
// Setting x.A.B sets A as well as B; so does &x.A.B.
func (c *census) scan(p *censusPkg, d ast.Decl, u *usage) {
	fn, _ := d.(*ast.FuncDecl)
	inDefault := fn != nil && isDefaultName(fn.Name.Name)
	setChain := func(e ast.Expr, dflt bool) {
		for {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := c.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				v := s.Obj().(*types.Var).Origin()
				if !(dflt && v.Pkg() == p.types) {
					u.set[v] = true
				}
			}
			e = sel.X
		}
	}
	targets := map[*ast.SelectorExpr]bool{}
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			s := c.info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			targets[x] = true
			if _, ptr := s.Recv().Underlying().(*types.Pointer); !ptr {
				target(x.X)
			}
		case *ast.IndexExpr:
			if _, array := c.info.Types[x.X].Type.Underlying().(*types.Array); array {
				target(x.X)
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			id, _ := n.Rhs[0].(*ast.Ident)
			for _, lhs := range n.Lhs {
				target(lhs)
				setChain(lhs, inDefault || (id != nil && isDefaultName(id.Name)))
			}
		case *ast.IncDecStmt:
			target(n.X)
			setChain(n.X, inDefault)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setChain(n.X, inDefault)
			}
		case *ast.CompositeLit:
			st, ok := c.info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				v := (*types.Var)(nil)
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v, _ = c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
				} else {
					v = st.Field(i)
				}
				if v != nil && !(inDefault && v.Pkg() == p.types) {
					u.set[v.Origin()] = true
				}
			}
		case *ast.SelectorExpr:
			s := c.info.Selections[n]
			if s == nil {
				break
			}
			for _, v := range embeddedPath(s) {
				u.read[v] = true
			}
			if s.Kind() == types.FieldVal && !targets[n] {
				u.read[s.Obj().(*types.Var).Origin()] = true
			}
		case *ast.CallExpr:
			if f := c.callee(n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "encoding/json" {
				for _, arg := range n.Args {
					readJSON(c.info.Types[arg].Type, u.read, map[types.Type]bool{})
				}
			}
		}
		return true
	})
}

// callee is the function or method a call names, if any.
func (c *census) callee(call *ast.CallExpr) *types.Func {
	e := ast.Unparen(call.Fun)
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		f, _ := c.info.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := c.info.Uses[x.Sel].(*types.Func)
		return f
	}
	return nil
}

// embeddedPath returns the embedded fields a selection goes through.
func embeddedPath(s *types.Selection) []*types.Var {
	var path []*types.Var
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		f := st.Field(i)
		path = append(path, f.Origin())
		t = f.Type()
	}
	return path
}

// readValue marks every field of a struct value read, nested struct and
// array values included: what == and map hashing compare.
func readValue(t types.Type, read map[*types.Var]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			read[u.Field(i).Origin()] = true
			readValue(u.Field(i).Type(), read)
		}
	case *types.Array:
		readValue(u.Elem(), read)
	}
}

// readJSON marks the fields encoding/json reads of a value of type t:
// exported ones not tagged "-", through pointers, slices, arrays and maps.
func readJSON(t types.Type, read map[*types.Var]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		readJSON(u.Elem(), read, seen)
	case *types.Slice:
		readJSON(u.Elem(), read, seen)
	case *types.Array:
		readJSON(u.Elem(), read, seen)
	case *types.Map:
		readJSON(u.Key(), read, seen)
		readJSON(u.Elem(), read, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if (f.Exported() || f.Embedded()) && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				read[f.Origin()] = true
				readJSON(f.Type(), read, seen)
			}
		}
	}
}

func isDefaultName(name string) bool { return strings.Contains(strings.ToLower(name), "default") }

// funcOwner names a function declaration as the allowlists do: F, or T.M
// for a method.
func funcOwner(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// embeddedIdent is the identifier an embedded field is named by: T in T,
// *T, pkg.T and T[K].
func embeddedIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// audit fails on each key of bad that allow does not name, and on each
// allow entry that names no key of found or one that found does not
// report bad: an allowlist entry must earn its place.
func audit(t *testing.T, allow map[string]string, found, bad map[string]bool, fix string) {
	t.Helper()
	for key := range allow {
		if !found[key] {
			t.Errorf("allowlist entry %s names nothing this check looks at", key)
		} else if !bad[key] {
			t.Errorf("%s is allowlisted but passes: drop its allowlist entry", key)
		}
	}
	var keys []string
	for key := range bad {
		if _, ok := allow[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s", key, fix)
	}
}

// TestProductionIsTyped type-checks the module's non-test code once
// (cmd/*, bench and examples/* are consumers) and holds internal/* and
// the facade to four rules, each resolved by object, not by name:
//
//   - fields: every struct field is read by non-test code, compared with
//     == or used as a map key, or encoded by encoding/json. A write, or a
//     fmt %v, is not a read.
//   - exports: every exported type, variable and constant of internal/*
//     is referred to by non-test code outside its declaration.
//   - options: every exported field of an option struct is set by
//     non-test code outside its package's default-filling functions.
//   - determinism (bench/ excepted): nothing imports math/rand, time.Now
//     is called only by timing code, and a range over a map sorts what it
//     collects later in the same function.
//
// Each rule has its allowlist, whose entries give their reason; an entry
// that names nothing, or something the rule passes, fails. Functions and
// methods are TestProductionIsLinked's. Run both with
//
//	go test -tags linkcensus -run 'TestProductionIs(Linked|Typed)' -count=1 .
func TestProductionIsTyped(t *testing.T) {
	c := loadCensus(t)
	u := c.usage()

	t.Run("fields", func(t *testing.T) {
		found, bad := map[string]bool{}, map[string]bool{}
		for v, key := range u.decl {
			found[key] = true
			if !u.read[v] {
				bad[key] = true
			}
		}
		audit(t, unreadField, found, bad, "no non-test code reads this field — delete it with its writes, or allowlist it with the reader-to-be")
	})

	t.Run("exports", func(t *testing.T) {
		found, bad := map[string]bool{}, map[string]bool{}
		for _, p := range c.pkgs {
			if !strings.HasPrefix(p.dir, "internal/") {
				continue
			}
			scope := p.types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if _, fn := obj.(*types.Func); fn || !obj.Exported() {
					continue
				}
				key := p.short + "." + name
				found[key] = true
				if !u.used[obj] {
					bad[key] = true
				}
			}
		}
		audit(t, exportedWithoutConsumer, found, bad, "exported from internal/ but referred to by no non-test code — delete it, unexport it, or allowlist it with a reason")
	})

	t.Run("options", func(t *testing.T) {
		found, bad := map[string]bool{}, map[string]bool{}
		for _, name := range optionStructs {
			st := c.lookupStruct(name)
			if st == nil {
				t.Errorf("option struct %s not found", name)
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				key := name + "." + f.Name()
				found[key] = true
				if !u.set[f] {
					bad[key] = true
				}
			}
		}
		for key, reason := range fieldWithoutSetter {
			if strings.HasPrefix(reason, "pending:") {
				t.Errorf("%s is allowlisted as pending: name the test that needs the knob, or delete the field", key)
			}
		}
		audit(t, fieldWithoutSetter, found, bad, "no non-test code sets this option field — delete the knob, or allowlist it with the test that needs it")
	})

	t.Run("determinism", func(t *testing.T) {
		clocks, ranges, unsorted := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, p := range c.pkgs {
			if p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") {
				continue
			}
			for _, f := range p.files {
				for _, imp := range f.Imports {
					if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
						t.Errorf("%s imports %s: draw from sim.RNG, which the tape seeds", c.fset.Position(imp.Pos()), path)
					}
				}
				for _, d := range f.Decls {
					c.determinism(p, d, clocks, ranges, unsorted)
				}
			}
		}
		audit(t, wallClock, clocks, clocks, "calls time.Now outside timing code: simulated time is the cycle count")
		audit(t, unsortedMapRange, ranges, unsorted, "ranges over a map and sorts nothing after it: map order is random — sort what the loop collects, or allowlist the function with why its order cannot reach output")
	})
}

// lookupStruct resolves pkg.Type (internal/ trimmed) to its struct.
func (c *census) lookupStruct(name string) *types.Struct {
	pkg, typ, _ := strings.Cut(name, ".")
	for _, p := range c.pkgs {
		if p.production() && p.short == pkg {
			if obj := p.types.Scope().Lookup(typ); obj != nil {
				st, _ := obj.Type().Underlying().(*types.Struct)
				return st
			}
		}
	}
	return nil
}

// determinism records, for one top-level declaration, whether it calls
// time.Now and whether it ranges over a map without a sort after the
// range, keyed pkg.F or pkg.T.M.
func (c *census) determinism(p *censusPkg, d ast.Decl, clocks, ranges, unsorted map[string]bool) {
	key := p.short + "."
	if fn, ok := d.(*ast.FuncDecl); ok {
		key += funcOwner(fn)
	} else if gd, ok := d.(*ast.GenDecl); ok && len(gd.Specs) > 0 {
		if vs, ok := gd.Specs[0].(*ast.ValueSpec); ok {
			key += vs.Names[0].Name
		}
	}
	var mapRanges []token.Pos
	var sorts []token.Pos
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f, ok := c.info.Uses[n].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Now" {
				clocks[key] = true
			}
		case *ast.RangeStmt:
			if tv, ok := c.info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mapRanges = append(mapRanges, n.Pos())
				}
			}
		case *ast.CallExpr:
			if f := c.callee(n); f != nil && f.Pkg() != nil {
				if path := f.Pkg().Path(); path == "sort" || (path == "slices" && strings.HasPrefix(f.Name(), "Sort")) {
					sorts = append(sorts, n.Pos())
				}
			}
		}
		return true
	})
	for _, r := range mapRanges {
		ranges[key] = true
		sorted := false
		for _, s := range sorts {
			sorted = sorted || s > r
		}
		if !sorted {
			unsorted[key] = true
		}
	}
}

// unreadField is the allowlist of TestProductionIsTyped/fields: struct
// fields of internal/* and the facade that no non-test code reads, each
// with the test or ROADMAP item that reads it.
var unreadField = map[string]string{
	// Results only tests read.
	"check.TwinVerdict.Total":                 "TestRunTwinTightBandFails checks every phase verdict and the total one",
	"cpu.Outcome.Misses":                      "TestSelfThrottlingCapsLoad bounds the per-core miss rate by it",
	"exp.ExactBreakdownRow.Attr":              "TestExactBreakdownInternalConsistency and TestExactBreakdownDifferential check the integer sums behind the means",
	"exp.PhaseSLO.Attr":                       "TestWorkloadSLODeterminism checks each phase's attribution covers its spans",
	"farm.Manifest.TornTail":                  "TestManifestTornTail checks a torn final line is reported on resume",
	"router.Packet.Retransmissions":           "TestHoldHeadNackRetransmits and TestBackoffDoublingAndCap count re-sends through it",
	"router.Packet.SentAt":                    "TestPacketTimestamps, TestFireAndForget and TestHoldHeadNackRetransmits check the last-send stamp",
	"trace.AppModel.Suite":                    "TestAppsCoverPaperBenchmarks checks the models cover the paper's four suites",
	"traffic.MultiFlitInjector.MessagesBegun": "TestMultiFlitReassembly and TestMultiFlitStop count begun messages against completed ones",
	"twin.Prediction.ChannelLoad":             "TestUtilizationAndChannelLoad checks it is the rate times the cores per node",
	"twin.Prediction.PacketsInFlight":         "TestLittlesLaw checks L = λW over the whole network",
	"twin.Prediction.QueueOccupancy":          "TestLittlesLaw checks L = λW over the queueing phases",

	// The SWMR engine's results, read once it joins the batteries.
	"swmr.Result.Delivered":      "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.OfferedLoad":    "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.P99Latency":     "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.PortDropRate":   "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.RetransmitRate": "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.Scheme":         "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.Throughput":     "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Result.Unfinished":     "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Stats.Injected":        "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Stats.LocalDelivered":  "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Stats.Reservations":    "ROADMAP item 6 (swmr inside the batteries)",
}

// exportedWithoutConsumer is the allowlist of TestProductionIsTyped/exports:
// exported internal/* types, variables and constants no non-test code
// refers to, each with the reason it stays.
var exportedWithoutConsumer = map[string]string{}

// optionStructs are the option structs whose exported fields
// TestProductionIsTyped/options checks, as pkg.Type under internal/.
var optionStructs = []string{
	"core.Config", "core.RecoveryConfig", "arbiter.FairnessConfig", "fault.Config", "fault.ClassConfig",
	"swmr.Config", "farm.Config", "cpu.Params", "ptrace.StreamConfig", "exp.Options",
	"check.Point", "check.Drive", "check.Grid",
}

// fieldWithoutSetter is the allowlist of TestProductionIsTyped/options:
// option-struct fields no non-test code sets, each with the test or
// battery that needs the knob. There is no third kind: a field no test
// needs is deleted, not queued ("pending: ..." entries fail the test).
var fieldWithoutSetter = map[string]string{
	// Knobs a test or battery turns.
	"core.Config.QueueCap":               "the conservation audit's QueueRejected term: TestConservationBoundedQueues and TestBoundedQueueThrottles bound the output queues through it",
	"core.RecoveryConfig.WatchdogWindow": "TestWatchdogDuplicateGuard drives the duplicate-token guard through a short window",
	"swmr.Config.RxPorts":                "TestRxPortContentionThrottles and TestRxPortsScaleThroughput: receiver-port contention is the SWMR model's one free dimension",
	"swmr.Config.BufferDepth":            "TestHandshakeBufferIndependence sweeps the receive buffer",
	"swmr.Config.EjectStallProb":         "TestReservationInvariants stalls the receivers through it; ROADMAP item 6 puts it in the chaos battery",
	"swmr.Config.Scheme":                 "set through DefaultConfig(s)'s argument: exp.SWMRStudy runs every scheme that way",
	"arbiter.FairnessConfig.Window":      "model constant (512-cycle quota window, §III-D); TestFairnessQuota, TestFairnessEgalitarianAllowance and FuzzFairnessOracle vary it",

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
	"swmr.Config.Nodes":          "model constant (the paper's 64-node ring, as core.DefaultConfig); TestConfigValidation guards it",
	"swmr.Config.CoresPerNode":   "model constant (4 cores per node, as core.DefaultConfig); TestConfigValidation guards it",
	"swmr.Config.RoundTrip":      "model constant (R = 8, as core.DefaultConfig); TestConfigValidation guards it",
	"swmr.Config.SetasideSize":   "model constant (4 setaside slots, as core.DefaultConfig); TestConfigValidation guards it",
}

// wallClock is the allowlist of time.Now: the functions that time
// something, each with what it times.
var wallClock = map[string]string{
	"cmd/sweep.runFarm": "the farm run's wall time, printed on the summary line beside the grid digest",
}

// unsortedMapRange is the allowlist of map ranges without a sort after
// them, by function, each with why its order cannot reach output.
var unsortedMapRange = map[string]string{
	"ptrace.cursorTable.each": "order-free: its one caller, Stream.Close, sorts what it collects by (Injected, ID)",
}
