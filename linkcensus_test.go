//go:build linkcensus

package photon

import (
	"bufio"
	"bytes"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedProduction is the allowlist of TestProductionIsLinked: non-test
// functions and methods that no binary of the module links, each with the
// reason it stays. An entry the linker does keep, or one that names no
// declaration, fails the test.
var unlinkedProduction = map[string]string{
	"swmr.Network.CheckInvariants": "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Network.RunCycles":       "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Network.Now":             "ROADMAP item 6 (swmr inside the batteries)",
	"swmr.Network.Stats":           "ROADMAP item 6 (swmr inside the batteries)",
	"core.Network.Digest":          "ROADMAP item 7 (divergence finder)",
}

// TestProductionIsLinked builds every main package of the module (cmd/*,
// bench, examples/*) with inlining off and reads their symbol tables:
// a non-test function or method of internal/* or of the photon facade
// that no binary links is code only tests keep alive. The linker keeps a
// method that may be called through an interface, so the census errs
// towards silence there and nowhere else: a same-named call on another
// type keeps nothing alive.
//
// It needs the go tool and a build of every binary (~12 s cold, ~3 s
// warm), so it sits behind the linkcensus build tag, with
// TestProductionIsTyped, whose load it reads the declarations from:
//
//	go test -tags linkcensus -run 'TestProductionIs(Linked|Typed)' -count=1 .
func TestProductionIsLinked(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/...", "./bench", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	binaries, err := os.ReadDir(bin)
	if err != nil || len(binaries) == 0 {
		t.Fatalf("no binaries built: %v", err)
	}
	linked := map[string]bool{}
	for _, b := range binaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			if sym, ok := textSymbol(sc.Text()); ok {
				linked[stripBrackets(sym)] = true
			}
		}
	}

	seen := map[string]bool{}
	var unlinked []string
	for _, p := range loadCensus(t).pkgs {
		if !p.production() {
			continue
		}
		importPath := p.types.Path()
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				name := fn.Name.Name
				key, sym, ptrSym := p.short+"."+name, importPath+"."+name, ""
				if fn.Recv != nil {
					recv := receiverName(fn.Recv.List[0].Type)
					key = p.short + "." + recv + "." + name
					sym, ptrSym = importPath+"."+recv+"."+name, importPath+".(*"+recv+")."+name
				}
				seen[key] = true
				isLinked := linked[sym] || linked[ptrSym]
				if _, allowed := unlinkedProduction[key]; isLinked && allowed {
					t.Errorf("%s is allowlisted but a binary links it: drop its allowlist entry", key)
				} else if !isLinked && !allowed {
					unlinked = append(unlinked, key)
				}
			}
		}
	}
	for key := range unlinkedProduction {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no function or method of internal/* or the facade", key)
		}
	}
	sort.Strings(unlinked)
	for _, key := range unlinked {
		t.Errorf("%s: linked into no binary (cmd/*, bench, examples/*) — delete it, move it beside the tests that use it, or allowlist it with the item that gives it a consumer", key)
	}
}

// textSymbol returns the name of a code symbol from one line of go tool
// nm output ("address type name"; undefined symbols carry no address).
// The name is the rest of the line: a generic instantiation's shape
// contains spaces.
func textSymbol(line string) (string, bool) {
	line = strings.TrimSpace(line)
	addr, rest, _ := strings.Cut(line, " ")
	if len(addr) == 1 { // no address: the line starts with the type
		rest = line
	}
	kind, name, ok := strings.Cut(strings.TrimSpace(rest), " ")
	return name, ok && (kind == "T" || kind == "t")
}

// stripBrackets drops every bracket group, nested ones included, so that
// pkg.F[go.shape.int] reads pkg.F and pkg.(*T[...]).M reads pkg.(*T).M.
func stripBrackets(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// receiverName is the type name of a method receiver: *T, T, T[K] and
// *T[K, V] all read T.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
