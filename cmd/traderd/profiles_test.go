package main

import (
	"sort"
	"strings"
	"testing"

	"trader/internal/daemon"
)

// Every profile builds a started monitor on a kernel of its own: two calls
// never share a clock or a monitor, so devices never share state.
func TestProfilesBuildDistinctStartedMonitors(t *testing.T) {
	for name, factory := range profiles {
		k1, m1, err := factory("dev-a", 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k2, m2, err := factory("dev-b", 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k1 == k2 || m1 == m2 {
			t.Errorf("%s: two devices share a kernel or a monitor", name)
		}
		if m1.Kernel() != k1 || m2.Kernel() != k2 {
			t.Errorf("%s: monitor not on the kernel returned beside it", name)
		}
		// A started monitor refuses a second Start.
		if err := m1.Start(); err == nil {
			t.Errorf("%s: monitor was not started", name)
		}
		m1.Stop()
		m2.Stop()
	}
}

func TestUnknownProfileListsKnownNames(t *testing.T) {
	_, err := daemon.New(daemon.Config{Replay: t.TempDir(), SUO: "stb", Profiles: profiles})
	want := `unknown SUO profile "stb" (known: light, mediaplayer, tv)`
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

// The -suo help and the unknown-profile error list ProfileNames: the
// table's keys, sorted, so neither drifts from what -suo accepts — which
// is exactly light, mediaplayer and tv.
func TestProfileNamesAreTheSortedTable(t *testing.T) {
	var keys []string
	for name := range profiles {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	got := daemon.Config{Profiles: profiles}.ProfileNames()
	if want := strings.Join(keys, ", "); got != want {
		t.Fatalf("profile names = %q, want the sorted table keys %q", got, want)
	}
	if got != "light, mediaplayer, tv" {
		t.Fatalf("profile names = %q, want light, mediaplayer, tv", got)
	}
}
