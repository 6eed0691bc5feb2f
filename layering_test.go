package trader_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// module is this repository's module path (go.mod).
const module = "trader"

// importGraph maps every package of the module, by path relative to the
// module root ("internal/fleet", "cmd/traderd"), to the module packages its
// non-test files import. Nested modules (benchmark/) are not part of it.
func importGraph(t *testing.T, root string) map[string][]string {
	t.Helper()
	graph := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel != "." {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		pkg, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		var deps []string
		for _, imp := range pkg.Imports {
			if dep, ok := strings.CutPrefix(imp, module+"/"); ok {
				deps = append(deps, dep)
			}
		}
		graph[filepath.ToSlash(rel)] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// reach returns the import path from pkg to the first of targets it
// reaches, or nil when it reaches none.
func reach(graph map[string][]string, pkg string, targets []string) []string {
	from := map[string]string{pkg: ""}
	queue := []string{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p != pkg && slices.Contains(targets, p) {
			var chain []string
			for ; p != ""; p = from[p] {
				chain = append([]string{p}, chain...)
			}
			return chain
		}
		for _, dep := range graph[p] {
			if _, seen := from[dep]; !seen {
				from[dep] = p
				queue = append(queue, dep)
			}
		}
	}
	return nil
}

// isHarness reports whether pkg is the experiment harness: the experiment
// library, its runner, or a walkthrough example.
func isHarness(pkg string) bool {
	return pkg == "internal/exper" || pkg == "cmd/experiments" || strings.HasPrefix(pkg, "examples/")
}

// harnessOnly computes the packages only the harness uses: every non-test
// importer is the harness or another such package.
func harnessOnly(graph map[string][]string) []string {
	importers := map[string][]string{}
	for p, deps := range graph {
		for _, d := range deps {
			importers[d] = append(importers[d], p)
		}
	}
	only := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for p, by := range importers {
			if only[p] || isHarness(p) {
				continue
			}
			if !slices.ContainsFunc(by, func(i string) bool { return !isHarness(i) && !only[i] }) {
				only[p] = true
				changed = true
			}
		}
	}
	var out []string
	for p := range only {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestImportGraph pins the layering rule of ARCHITECTURE.md §1: the
// generic planes, the daemon assembly and the device client name no
// product, the daemon links no experiment harness, and neither the TV
// client nor the device client it streams through links a daemon plane.
// Products are composed only in cmd/traderd's profiles table.
func TestImportGraph(t *testing.T) {
	graph := importGraph(t, ".")
	products := []string{"internal/tvsim", "internal/mediaplayer", "internal/exper"}
	for _, p := range []string{"internal/core", "internal/fleet", "internal/journal", "internal/wire",
		"internal/control", "internal/diagnose", "internal/federate", "internal/trace", "internal/metrics",
		"internal/device", "internal/daemon"} {
		if _, ok := graph[p]; !ok {
			t.Errorf("generic plane %s not found", p)
		}
		if chain := reach(graph, p, products); chain != nil {
			t.Errorf("generic plane reaches a product: %s", strings.Join(chain, " → "))
		}
	}

	// The packages only experiments use, as the ROADMAP audit left them:
	// each backs a paper-section experiment. A package joining or leaving
	// this set is a layering change to make on purpose.
	wantOnly := []string{"internal/inspect", "internal/loadbal", "internal/modecheck", "internal/perception", "internal/stress"}
	only := harnessOnly(graph)
	if !slices.Equal(only, wantOnly) {
		t.Errorf("packages only the experiment harness imports = %v, want %v", only, wantOnly)
	}
	if chain := reach(graph, "cmd/traderd", append([]string{"internal/exper"}, wantOnly...)); chain != nil {
		t.Errorf("the daemon reaches the experiment harness: %s", strings.Join(chain, " → "))
	}

	planes := []string{"internal/fleet", "internal/journal", "internal/control", "internal/diagnose", "internal/federate"}
	for _, client := range []string{"cmd/tvsim", "internal/device"} {
		if chain := reach(graph, client, planes); chain != nil {
			t.Errorf("device-side %s reaches a daemon plane: %s", client, strings.Join(chain, " → "))
		}
	}
}

// keepReason is why an exported name that only tests call still ships. The
// set is closed: a new entry takes one of these or the code goes.
type keepReason string

const (
	// sharedOracle: a test oracle or harness other packages' tests share.
	sharedOracle keepReason = "test oracle or harness shared across packages' tests"
	// paperConcept: a paper concept the ROADMAP audit keeps.
	paperConcept keepReason = "paper concept the ROADMAP audit keeps"
)

// testOnlyAllowed lists the exported names kept although no non-test code
// refers to them, keyed "pkg.Name" or "pkg.Type.Method" (pkg relative to the
// module root); a bare package key keeps the whole package. An entry the
// gate no longer flags fails it too, so the list cannot go stale.
var testOnlyAllowed = map[string]keepReason{
	// Oracles and harnesses the tests of other packages drive.
	"internal/diagnose.Replay":                      sharedOracle, // replay-equality oracle of the diagnose tests and the e2e diagnosis suites
	"internal/statemachine.Model.RunScript":         sharedOracle, // scripted-conformance harness of the statemachine and tvsim tests
	"internal/wire.MsgTypes":                        sharedOracle, // the codec's frame-type list the fleet session tests walk
	"internal/sim.Kernel.RunAll":                    sharedOracle, // runs a kernel to quiescence in the sim, soc, faults, recovery and statemachine tests
	"internal/tvsim.Recorder.Press":                 sharedOracle, // drives device-side coverage in the diagnose, traderd and e2e tests
	"internal/federate.Aggregator.OwnerOf":          sharedOracle, // device-ownership oracle of the federate and e2e federation tests
	"internal/core.Monitor.Kernel":                  sharedOracle, // the cmd/traderd profile tests check a factory's monitor runs on the kernel it returns
	"internal/daemon.Daemon.Pool":                   sharedOracle, // the daemon's planes, as the boot, daemon and e2e tests read them
	"internal/daemon.Daemon.Server":                 sharedOracle,
	"internal/daemon.Daemon.Controller":             sharedOracle,
	"internal/daemon.Daemon.Engine":                 sharedOracle,
	"internal/daemon.Daemon.Tracer":                 sharedOracle,
	"internal/hwmon.FlightRecorder.Capture":         paperConcept, // Sect. 4.1 trace buffer: the pre-error window
	"internal/hwmon.FlightRecorder.CaptureMatching": paperConcept,
	// Sect. 4.1 aspect-oriented observation, and the Koala binding API it
	// weaves on.
	"internal/aspect":                  paperConcept,
	"internal/koala.Component.Provide": paperConcept,
	"internal/koala.Component.Require": paperConcept,
	"internal/koala.Component.Call":    paperConcept,
	"internal/koala.System.Bind":       paperConcept,
	"internal/koala.System.Bus":        paperConcept,
	"internal/koala.System.Weaver":     paperConcept,
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Module     *struct{} // nil for the standard library
}

// listModule runs `go list -deps -json ./...` in dir and returns the
// packages that belong to a module (not the standard library), in
// dependency order.
func listModule(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Module != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// checkedPackage is one type-checked module package.
type checkedPackage struct {
	listedPackage
	files []*ast.File
	info  *types.Info
}

// moduleImporter resolves module packages to the ones already checked and
// everything else from standard-library source.
type moduleImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// typeCheckModules type-checks the non-test files of every package of the
// root module and of the nested benchmark module, in dependency order and
// sharing one *types.Package per import path.
func typeCheckModules(t *testing.T, fset *token.FileSet) ([]checkedPackage, moduleImporter) {
	t.Helper()
	build.Default.CgoEnabled = false // the source importer then type-checks the pure-Go standard library
	imp := moduleImporter{pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	var checked []checkedPackage
	for _, p := range append(listModule(t, "."), listModule(t, "benchmark")...) {
		if _, seen := imp.pkgs[p.ImportPath]; seen {
			continue
		}
		cp := checkedPackage{listedPackage: p, info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.pkgs[p.ImportPath] = pkg
		checked = append(checked, cp)
	}
	return checked, imp
}

// exportedDecl is one exported name the gate requires a caller for.
type exportedDecl struct {
	key   string       // "pkg.Name" or "pkg.Type.Method"
	pos   token.Pos    // where it is declared
	own   []ast.Node   // its own declaration: uses inside do not count
	block *ast.GenDecl // the const block it is declared in, if any
}

// exportedDecls collects the exported top-level funcs, types, vars and
// consts and the exported methods of a package (not package main).
func exportedDecls(cp checkedPackage) map[types.Object]*exportedDecl {
	rel := strings.TrimPrefix(strings.TrimPrefix(cp.ImportPath, module), "/")
	decls := map[types.Object]*exportedDecl{}
	methods := map[string][]ast.Node{} // receiver type name → its method declarations
	for _, f := range cp.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					base := receiverBase(d.Recv.List[0].Type)
					methods[base] = append(methods[base], d)
					if d.Name.IsExported() {
						decls[cp.info.Defs[d.Name]] = &exportedDecl{key: rel + "." + base + "." + d.Name.Name, pos: d.Pos(), own: []ast.Node{d}}
					}
				} else if d.Name.IsExported() {
					decls[cp.info.Defs[d.Name]] = &exportedDecl{key: rel + "." + d.Name.Name, pos: d.Pos(), own: []ast.Node{d}}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[cp.info.Defs[s.Name]] = &exportedDecl{key: rel + "." + s.Name.Name, pos: s.Pos(), own: []ast.Node{s}}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[cp.info.Defs[n]] = &exportedDecl{key: rel + "." + n.Name, pos: n.Pos(), own: []ast.Node{s}, block: d}
							}
						}
					}
				}
			}
		}
	}
	// A type's own declaration includes its methods: a reference from one
	// of them is not a caller.
	for obj, d := range decls {
		if _, ok := obj.(*types.TypeName); ok {
			d.own = append(d.own, methods[obj.Name()]...)
		}
	}
	return decls
}

// receiverBase returns the type name of a method receiver expression.
func receiverBase(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// within reports whether pos lies inside one of nodes.
func within(pos token.Pos, nodes []ast.Node) bool {
	return slices.ContainsFunc(nodes, func(n ast.Node) bool { return n.Pos() <= pos && pos < n.End() })
}

// usedInterfaces returns the non-empty method-set interfaces non-test code
// uses, plus the standard ones a method may satisfy implicitly (error,
// fmt.Stringer, heap and sort, io, http.Handler).
func usedInterfaces(t *testing.T, checked []checkedPackage, imp moduleImporter) []*types.Interface {
	t.Helper()
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if ok && !seen[typ] && iface.NumMethods() > 0 && iface.IsMethodSet() {
			seen[typ] = true
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for path, names := range map[string][]string{
		"fmt": {"Stringer"}, "container/heap": {"Interface"}, "sort": {"Interface"}, "net/http": {"Handler"}, "io": nil,
	} {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, n := range names {
			if obj, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && obj.Exported() {
				add(obj.Type())
			}
		}
	}
	for _, cp := range checked {
		for _, tv := range cp.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether method m of a named type is one of the
// methods by which that type implements an interface in ifaces.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Signature().Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, iface := range ifaces {
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
	}
	return false
}

// TestNoTestOnlyCode fails when an exported name of a non-main package has
// no caller outside its own declaration in any non-test file of the root
// module or the benchmark module. Exempt by construction: methods by which
// a type satisfies an interface non-test code uses (or a standard one a
// method meets implicitly), and unused members of a typed const block one
// of whose members is used. Everything else needs a testOnlyAllowed entry.
// The gate is a fixed point: deleting a name can leave the names only it
// used without a caller, and the next run flags those.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	checked, imp := typeCheckModules(t, fset)

	decls := map[types.Object]*exportedDecl{}
	for _, cp := range checked {
		if cp.Name != "main" {
			maps.Copy(decls, exportedDecls(cp))
		}
	}
	used := map[types.Object]bool{}
	for _, cp := range checked {
		for id, obj := range cp.info.Uses {
			obj = origin(obj)
			if d, ok := decls[obj]; ok && !within(id.Pos(), d.own) {
				used[obj] = true
			}
		}
	}
	usedBlocks := map[*ast.GenDecl]bool{}
	for obj := range used {
		if d := decls[obj]; d.block != nil && d.block.Tok == token.CONST {
			usedBlocks[d.block] = true
		}
	}
	ifaces := usedInterfaces(t, checked, imp)

	flagged := map[string]token.Pos{}
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if _, named := obj.Type().(*types.Named); named && usedBlocks[d.block] {
			continue
		}
		if m, ok := obj.(*types.Func); ok && satisfiesInterface(m, ifaces) {
			continue
		}
		flagged[d.key] = d.pos
	}

	// allowlisted returns the entry covering key: the name itself, its
	// type, or its package.
	allowlisted := func(key string) (string, bool) {
		for {
			if _, ok := testOnlyAllowed[key]; ok {
				return key, true
			}
			i := strings.LastIndex(key, ".")
			if i < 0 {
				return "", false
			}
			key = key[:i]
		}
	}
	wd, _ := os.Getwd()
	var bad []string
	hit := map[string]bool{}
	for key, pos := range flagged {
		if k, ok := allowlisted(key); ok {
			hit[k] = true
			continue
		}
		at := fset.Position(pos)
		if rel, err := filepath.Rel(wd, at.Filename); err == nil {
			at.Filename = rel
		}
		bad = append(bad, fmt.Sprintf("%s (%s)", key, at))
	}
	slices.Sort(bad)
	if len(bad) > 0 {
		t.Errorf("%d exported names have no non-test caller; delete them, move them into an export_test.go, or allowlist them with a reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for k, why := range testOnlyAllowed {
		if why != sharedOracle && why != paperConcept {
			t.Errorf("allowlist entry %s: reason %q is not one of the closed set", k, why)
		}
		if !hit[k] {
			t.Errorf("allowlist entry %s is stale: the gate no longer flags it", k)
		}
	}
}

// mdRef matches a Markdown file named in text: ARCHITECTURE.md,
// benchmark/README.md, .claude/skills/verify/SKILL.md.
var mdRef = regexp.MustCompile(`\.?[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// codeSpan matches a Markdown code span. A name in one is under discussion
// — a file to write, or one that was deleted — rather than a reference.
var codeSpan = regexp.MustCompile("`[^`\n]*`")

// TestDocReferencesExist fails when a Go comment of either module or a
// Markdown document of the repository names a *.md file that does not
// exist, relative to the repository root or to the naming file's
// directory. Tracked dot-directories (.claude, .github) are checked too.
// Not references: Markdown code spans, and SNIPPETS.md and PAPERS.md, which
// quote other repositories' paths.
func TestDocReferencesExist(t *testing.T) {
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	check := func(path, text string) {
		for _, ref := range mdRef.FindAllString(text, -1) {
			if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
				t.Errorf("%s names %s, which does not exist", path, ref)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			switch d.Name() {
			case ".git", ".bench_build", "testdata": // history, build output, fixtures
				return filepath.SkipDir
			}
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, cg := range f.Comments {
				check(path, cg.Text())
			}
		case strings.HasSuffix(path, ".md") && path != "SNIPPETS.md" && path != "PAPERS.md":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			check(path, codeSpan.ReplaceAllString(string(b), ""))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
