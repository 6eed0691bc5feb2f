package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"trader/internal/wire"
)

// testdata/tv-journal was written by a build whose every TV monitor
// compiled its own spec model and kept its variables in a map: that
// traderd -listen -suo tv -shards 2 -journal -checkpoint-seconds 1
// -recover default, fed by tvsim -connect -n 3 -fault-every 2 -faults
// audio-skew,txt-sync -duration 12 -pace 4 and killed with SIGKILL after
// its third checkpoint. Its checkpoint records key the spec-model state by
// name. Booting from it must give the rollup and the error-report stream
// that build's own replay gave (pinned below).
func TestTVJournalFromMapBackedBuildReplays(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "tv-journal"))); err != nil {
		t.Fatal(err)
	}
	d := newReplay(t, dir, "tv", 2)
	pool := d.Pool()
	var mu sync.Mutex
	reports := map[string][]string{}
	pool.OnReport(func(device string, r wire.ErrorReport) {
		mu.Lock()
		reports[device] = append(reports[device], r.String())
		mu.Unlock()
	})
	st, err := d.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints == 0 {
		t.Fatalf("fixture replayed no checkpoint records (%s)", st)
	}
	if got, want := fmt.Sprintf("%+v", pool.Rollup()), "{Devices:3 Shards:2 Monitor:{InputsSeen:24 OutputsSeen:1095 Comparisons:1081 Deviations:36 Errors:12 ModelErrors:0 SilenceScans:3484} Dispatched:1119 Dropped:0 Quarantined:3 Reports:12 ShedObservations:0 ShedHeartbeats:0 ShedControl:0}"; got != want {
		t.Errorf("rollup:\n got %s\nwant %s", got, want)
	}
	var stream []string
	for device, rs := range reports {
		stream = append(stream, device+": "+strings.Join(rs, " | "))
	}
	sort.Strings(stream)
	if got, want := strings.Join(stream, "\n"), "tvsim-000000: "+teletextStale+"\n"+
		"tvsim-000002: "+teletextStale; got != want {
		t.Errorf("error-report stream:\n got %s\nwant %s", got, want)
	}
}

// teletextStale is the report stream each txt-sync device raises after the
// fixture's last checkpoint.
const teletextStale = "[10.225s] comparator: teletext-fresh expected=1 actual=0 (consecutive=3)  | [10.825s] comparator: teletext-fresh expected=1 actual=0 (consecutive=3)  | [11.425s] comparator: teletext-fresh expected=1 actual=0 (consecutive=3) "
