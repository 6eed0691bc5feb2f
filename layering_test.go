package trader_test

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
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
// generic planes name no product, the daemon links no experiment harness,
// and the TV client links no daemon plane. Products are composed only in
// cmd/traderd's profiles table.
func TestImportGraph(t *testing.T) {
	graph := importGraph(t, ".")
	products := []string{"internal/tvsim", "internal/mediaplayer", "internal/exper"}
	for _, p := range []string{"internal/core", "internal/fleet", "internal/journal", "internal/wire",
		"internal/control", "internal/diagnose", "internal/federate", "internal/trace", "internal/metrics"} {
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
	if chain := reach(graph, "cmd/tvsim", planes); chain != nil {
		t.Errorf("the TV client reaches a daemon plane: %s", strings.Join(chain, " → "))
	}
}
