package exper

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell (prefix before any space).
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s row %d col %d: %q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, prefix string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	t.Fatalf("table %s: no row with prefix %q; rows: %v", tab.ID, prefix, tab.Rows)
	return -1
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE1ClosedLoopShape(t *testing.T) {
	tab, err := E1ClosedLoop(1)
	if err != nil {
		t.Fatal(err)
	}
	// Closed loop strictly reduces every failure-seconds row and irritation.
	for _, fn := range []string{"failure seconds: image-quality", "failure seconds: teletext", "failure seconds: audio"} {
		r := findRow(t, tab, fn)
		open, closed := cell(t, tab, r, 1), cell(t, tab, r, 2)
		if open <= 0 {
			t.Fatalf("%s: open-loop exposure %v, want > 0 (fault must bite)", fn, open)
		}
		if closed >= open {
			t.Fatalf("%s: closed %v not < open %v", fn, closed, open)
		}
	}
	r := findRow(t, tab, "panel irritation")
	if cell(t, tab, r, 2) >= cell(t, tab, r, 1) {
		t.Fatal("closed-loop irritation must drop")
	}
	r = findRow(t, tab, "errors detected")
	if cell(t, tab, r, 2) < 3 {
		t.Fatal("closed loop should detect all three faults")
	}
	r = findRow(t, tab, "recoveries executed")
	if cell(t, tab, r, 2) < 3 {
		t.Fatal("closed loop should recover all three faults")
	}
}

func TestE2OverheadShape(t *testing.T) {
	tab, err := E2FrameworkOverhead()
	if err != nil {
		t.Fatal(err)
	}
	inproc := cell(t, tab, findRow(t, tab, "in-process observations/s"), 1)
	sock := cell(t, tab, findRow(t, tab, "cross-process (fleet.Server, loopback TCP) observations/s"), 1)
	if inproc < 10000 {
		t.Fatalf("in-process throughput %v unreasonably low", inproc)
	}
	if sock <= 0 {
		t.Fatal("socket throughput missing")
	}
	if inproc < sock {
		t.Fatalf("in-process (%v) should beat socket (%v)", inproc, sock)
	}
	comps := cell(t, tab, findRow(t, tab, "comparisons in 10 s"), 1)
	if comps <= 0 {
		t.Fatal("monitored TV produced no comparisons")
	}
}

func TestE3TradeoffShape(t *testing.T) {
	tab, err := E3ComparatorTradeoff(1)
	if err != nil {
		t.Fatal(err)
	}
	// First row (tolerance 0): false positives present. Last row: none.
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	fp0, _ := strconv.Atoi(first[1])
	fpN, _ := strconv.Atoi(last[1])
	if fp0 == 0 {
		t.Fatal("tolerance 0 should flag benign glitches")
	}
	if fpN != 0 {
		t.Fatalf("high tolerance still has %d false positives", fpN)
	}
	// False positives are non-increasing with tolerance, and the real fault
	// is detected at every tolerance in the sweep.
	prev := fp0
	for i, row := range tab.Rows {
		fp, _ := strconv.Atoi(row[1])
		if fp > prev {
			t.Fatalf("false positives increased at row %d: %v", i, tab.Rows)
		}
		prev = fp
		if row[2] != "true" {
			t.Fatalf("real fault missed at tolerance %s", row[0])
		}
	}
}

func TestE4DiagnosisShape(t *testing.T) {
	tab, err := E4Diagnosis(42)
	if err != nil {
		t.Fatal(err)
	}
	r := findRow(t, tab, "fault rank (ochiai)")
	if got := tab.Rows[r][2]; !strings.HasPrefix(got, "1 ") {
		t.Fatalf("ochiai rank = %q, paper reports 1", got)
	}
	covered := cell(t, tab, findRow(t, tab, "blocks executed"), 2)
	if covered < 10000 || covered > 25000 {
		t.Fatalf("coverage %v outside the paper's ballpark", covered)
	}
}

func TestE5ModeConsistencyShape(t *testing.T) {
	tab, err := E5ModeConsistency(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []string{"mode-consistency checker", "comparator"} {
		r := findRow(t, tab, det)
		if tab.Rows[r][1] != "yes" {
			t.Fatalf("%s did not detect", det)
		}
	}
}

func TestE6RecoveryShape(t *testing.T) {
	tab, err := E6Recovery(1)
	if err != nil {
		t.Fatal(err)
	}
	unit, full := tab.Rows[0], tab.Rows[2]
	if unit[0] != "unit" || full[0] != "full" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	if unit[2] != "0ns" {
		t.Fatalf("unit-scope healthy downtime = %s, want 0", unit[2])
	}
	if full[2] == "0ns" {
		t.Fatal("full restart should cost the healthy unit downtime")
	}
	unitLost, _ := strconv.Atoi(unit[3])
	fullLost, _ := strconv.Atoi(full[3])
	if unitLost > fullLost {
		t.Fatalf("unit scope lost more frames (%d) than full (%d)", unitLost, fullLost)
	}
}

func TestE7MigrationShape(t *testing.T) {
	tab, err := E7Migration(3)
	if err != nil {
		t.Fatal(err)
	}
	noMig := findRow(t, tab, "overload, no migration")
	withMig := findRow(t, tab, "overload, with load balancer")
	if cell(t, tab, withMig, 1) >= cell(t, tab, noMig, 1) {
		t.Fatal("migration should cut the miss rate")
	}
	if cell(t, tab, withMig, 2) <= cell(t, tab, noMig, 2) {
		t.Fatal("migration should lift mean quality")
	}
	fixedServed := cell(t, tab, findRow(t, tab, "io under fixed-priority"), 1)
	adaptServed := cell(t, tab, findRow(t, tab, "io under adaptive"), 1)
	if adaptServed <= fixedServed {
		t.Fatal("adaptive arbiter should serve the starved requestor")
	}
}

func TestE8PerceptionShape(t *testing.T) {
	tab, err := E8Perception(42)
	if err != nil {
		t.Fatal(err)
	}
	stated := findRow(t, tab, "stated importance rank")
	observed := findRow(t, tab, "observed irritation rank")
	ablated := findRow(t, tab, "observed rank w/o attribution")
	if cell(t, tab, stated, 1) >= cell(t, tab, stated, 2) {
		t.Fatal("stated: image-quality should outrank swivel")
	}
	if cell(t, tab, observed, 2) >= cell(t, tab, observed, 1) {
		t.Fatal("observed: swivel should outrank image-quality")
	}
	if cell(t, tab, ablated, 1) >= cell(t, tab, ablated, 2) {
		t.Fatal("ablated: image-quality should lead again")
	}
}

func TestE9StressShape(t *testing.T) {
	tab, err := E9Stress(9)
	if err != nil {
		t.Fatal(err)
	}
	// Miss rate at the top level exceeds the baseline; baseline is clean.
	if cell(t, tab, 0, 1) != 0 {
		t.Fatal("unstressed TV should not miss frames")
	}
	if cell(t, tab, len(tab.Rows)-1, 1) <= 0 {
		t.Fatal("heavy eater should cause misses")
	}
	if cell(t, tab, len(tab.Rows)-1, 3) <= 0 {
		t.Fatal("monitor should detect under heavy stress")
	}
	if cell(t, tab, len(tab.Rows)-1, 2) >= cell(t, tab, 0, 2) {
		t.Fatal("quality should degrade under stress")
	}
}

func TestE10InspectionShape(t *testing.T) {
	tab, err := E10WarningPriority(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		base, _ := strconv.ParseFloat(row[1], 64)
		prio, _ := strconv.ParseFloat(row[2], 64)
		if prio <= base {
			t.Fatalf("k=%s: prioritized %v not better than baseline %v", row[0], prio, base)
		}
	}
}

func TestE11ModelQualityShape(t *testing.T) {
	tab, err := E11ModelQuality(1)
	if err != nil {
		t.Fatal(err)
	}
	buggy := findRow(t, tab, "buggy")
	fixed := findRow(t, tab, "fixed")
	if cell(t, tab, buggy, 2) == 0 {
		t.Fatal("exploration should find the seeded interaction bug")
	}
	if cell(t, tab, fixed, 2) != 0 {
		t.Fatal("fixed model should be clean")
	}
	spec := findRow(t, tab, "full TV spec model")
	if tab.Rows[spec][2] != "0" {
		t.Fatal("shipped spec model should pass its scripts")
	}
}

func TestE12MediaPlayerShape(t *testing.T) {
	tab, err := E12MediaPlayer(2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][3] != "0" {
		t.Fatalf("healthy playback false positives = %s", tab.Rows[0][3])
	}
	for _, r := range tab.Rows[1:] {
		if r[1] != "true" {
			t.Fatalf("scenario %q not detected", r[0])
		}
	}
}

func TestE13FMEAShape(t *testing.T) {
	tab, err := E13FMEA(1)
	if err != nil {
		t.Fatal(err)
	}
	// Top-ranked component must be part of the streaming path and must show
	// nonzero measured exposure when its subsystem is attacked.
	top := tab.Rows[0][0]
	if top != "video" && top != "tuner" {
		t.Fatalf("top component = %s, want the streaming path", top)
	}
	videoRow := findRow(t, tab, "video")
	if cell(t, tab, videoRow, 2) <= 0 {
		t.Fatal("video injection should produce measured exposure")
	}
}

func TestE14FleetShape(t *testing.T) {
	tab, err := E14FleetSized(42, 120, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E14 produced no rows")
	}
	for i, row := range tab.Rows {
		if cell(t, tab, i, 2) <= 0 {
			t.Fatalf("row %d: non-positive throughput: %v", i, row)
		}
		if cell(t, tab, i, 4) <= 0 {
			t.Fatalf("row %d: fleet flagged no faulty devices: %v", i, row)
		}
	}
	// The one-shard row defines the speedup baseline.
	if tab.Rows[0][3] != "1.00x" {
		t.Fatalf("baseline speedup = %s, want 1.00x", tab.Rows[0][3])
	}
	// Conservation and flagging are hard invariants checked inside
	// RunFleetRounds; reaching here means they held for every shard count.
}
