package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"trader/internal/fleet"
	"trader/internal/wire"
)

// streamHash is the hash of the first n frames every connection of the
// workload would write under seed.
func streamHash(seed int64, n int) (hash string, ids []string) {
	cfg := config{seed: seed, conns: 4, shards: 4}
	h := sha256.New()
	for _, m := range mixesFor(cfg, workloads[2]) {
		ids = append(ids, m.id)
		h.Write(encodeStream(m, n))
	}
	return hex.EncodeToString(h.Sum(nil)), ids
}

// dirHash hashes every file under dir, names included.
func dirHash(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		b, err := os.ReadFile(p)
		h.Write([]byte(rel))
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	a, idsA := streamHash(7, 2000)
	b, _ := streamHash(7, 2000)
	c, idsC := streamHash(8, 2000)
	if a != b {
		t.Errorf("seed 7 gave two different frame streams: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same frame stream")
	}
	for i := range idsA {
		if idsA[i] == idsC[i] {
			t.Errorf("connection %d has device ID %q under both seeds", i, idsA[i])
		}
		// Placement is a property of the IDs, whatever the seed.
		for _, id := range []string{idsA[i], idsC[i]} {
			if got := fleet.RangeOf(id, 4); got != i%4 {
				t.Errorf("device %q lands on shard %d, want %d", id, got, i%4)
			}
		}
	}

	var hashes [3]string
	var specs [3]*journalSpec
	for i, seed := range []int64{7, 7, 8} {
		dir := filepath.Join(t.TempDir(), "journal")
		spec, err := writeJournal(dir, seed, 300, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i], specs[i] = dirHash(t, dir), spec
	}
	if hashes[0] != hashes[1] {
		t.Errorf("seed 7 wrote two different journals")
	}
	if hashes[0] == hashes[2] {
		t.Errorf("seeds 7 and 8 wrote the same journal")
	}
	s := specs[0]
	if want := 300 * journalRounds * journalRoundObs; s.observations != want || s.records != want+300*journalRounds+1 {
		t.Errorf("journal of 300 devices: %d observations in %d records", s.observations, s.records)
	}
	if s.reports == 0 {
		t.Errorf("journal carries no deviation burst, so a boot has no report to rebuild")
	}
}

// A healthy stream never reports and every burst reports exactly once with
// the injected values: the generator's claim, checked on the monitor itself.
func TestMixAgainstMonitor(t *testing.T) {
	for _, burstEvery := range []int{0, 200} {
		m := newMix("dev", subSeed(3, 0), burstEvery)
		var got []burst
		k, mon, err := fleet.LightMonitorFactory()("dev", 1)
		if err != nil {
			t.Fatal(err)
		}
		dev := fleet.RemoteDevice("dev", k, mon, func(msg wire.Message) error {
			got = append(got, burst{expected: msg.Error.Expected, actual: msg.Error.Actual})
			return nil
		})
		var want []burst
		for i := 0; i < 20000; i++ {
			msg, b := m.next()
			if b != nil {
				want = append(want, *b)
			}
			dev.Feed(*msg.Event)
		}
		if len(got) != len(want) {
			t.Fatalf("burstEvery %d: %d bursts injected, monitor reported %d", burstEvery, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("burstEvery %d: report %d is %+v, injected %+v", burstEvery, i, got[i], want[i])
			}
		}
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	if s := medianOf([]float64{5, 1, 9}); s.v != 5 || s.min != 1 || s.max != 9 || s.n != 3 {
		t.Errorf("medianOf(5,1,9) = %+v", s)
	}
	if s := medianOf([]float64{4, 1, 3, 2}); s.v != 2.5 {
		t.Errorf("medianOf(4,1,3,2) = %+v, want 2.5", s)
	}
	if s := medianOf(nil); s.n != 0 || s.v != 0 {
		t.Errorf("medianOf(nil) = %+v", s)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// The highest percentile with ten samples beyond it.
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{10, 0.99, 0.5}, {19, 0.99, 0.5}, {20, 0.99, 0.5}, {100, 0.99, 0.9},
		{1000, 0.99, 0.99}, {5000, 0.99, 0.99}, {1000, 0.999, 0.99}, {100, 0.5, 0.5},
	} {
		if got := supportedTail(c.n, c.want); math.Abs(got-c.tail) > 1e-12 {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}

	// Two slices; the second is slower. The reported p50 is the median of
	// the per-slice p50s, and samples outside the window are ignored.
	t0 := time.Unix(1000, 0)
	readings := []reading{{at: t0}, {at: t0.Add(time.Second)}, {at: t0.Add(2 * time.Second)}}
	var samples []sample
	for i := 1; i <= 10; i++ {
		at := t0.Add(time.Duration(i) * 90 * time.Millisecond)
		samples = append(samples, sample{at, time.Millisecond}, sample{at.Add(time.Second), 3 * time.Millisecond})
	}
	samples = append(samples, sample{t0.Add(-time.Second), time.Hour}, sample{t0.Add(3 * time.Second), time.Hour})
	if s := slicePercentile(samples, readings, 0.5); s.v != 2 || s.min != 1 || s.max != 3 || s.n != 2 {
		t.Errorf("slicePercentile = %+v, want median 2 of [1, 3]", s)
	}
}

func TestParseProm(t *testing.T) {
	got, err := parseProm(strings.NewReader(`# HELP trader_fleet_frames_total frames
# TYPE trader_fleet_frames_total counter
trader_fleet_frames_total 1234

trader_shed_frames_total{tier="observation"} 5
trader_ingest_latency_quantile_seconds{quantile="0.99"} 1.5e-05
trader_ingest_shard_latency_seconds_count{shard="1"} 617
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"trader_fleet_frames_total":                               1234,
		`trader_shed_frames_total{tier="observation"}`:            5,
		`trader_ingest_latency_quantile_seconds{quantile="0.99"}`: 1.5e-05,
		`trader_ingest_shard_latency_seconds_count{shard="1"}`:    617,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, bad := range []string{"trader_x", `trader_x{a="b c"}`, "trader_x one"} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseProm(%q) accepted a line without a value", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses; utime 250, stime 50 ticks.
	line := "4242 (trader d) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 100 1 2"
	got, err := parseProcStat(line)
	if err != nil || got != 3.0 {
		t.Errorf("parseProcStat = %v, %v; want 3.0 s", got, err)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Errorf("parseProcStat accepted a truncated line")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\ttraderd\nVmPeak:\t 1240000 kB\nVmHWM:\t   15320 kB\nVmRSS:\t   14000 kB\n")
	if err != nil || got != 15320 {
		t.Errorf("parseVmHWM = %v, %v; want 15320", got, err)
	}
	if _, err := parseVmHWM("Name:\ttraderd\nVmRSS:\t 14000 kB\n"); err == nil {
		t.Errorf("parseVmHWM accepted a status without the line")
	}
}

func TestChecksRejectDoctoredRuns(t *testing.T) {
	scrape := func() map[string]float64 {
		return map[string]float64{
			"trader_fleet_dispatched_total":                        1000,
			"trader_fleet_frames_total":                            1000,
			`trader_shed_frames_total{tier="observation"}`:         0,
			"trader_fleet_reports_total":                           4,
			`trader_ingest_shard_latency_seconds_count{shard="0"}`: 500,
			`trader_ingest_shard_latency_seconds_count{shard="1"}`: 500,
		}
	}
	if err := checkConservation(scrape(), 1000, 0); err != nil {
		t.Errorf("honest scrape rejected: %v", err)
	}
	sc := scrape()
	sc["trader_fleet_dispatched_total"] = 999 // one observation vanished
	if err := checkConservation(sc, 1000, 0); err == nil {
		t.Errorf("a scrape missing one dispatched observation passed conservation")
	}
	sc = scrape()
	sc["trader_fleet_dispatched_total"], sc[`trader_shed_frames_total{tier="observation"}`] = 990, 10
	sc["trader_fleet_frames_total"] = 990
	if err := checkConservation(sc, 1000, 0); err != nil {
		t.Errorf("shed observations are accounted for, yet: %v", err)
	}
	sc = scrape()
	delete(sc, "trader_fleet_frames_total")
	if err := checkConservation(sc, 1000, 0); err == nil {
		t.Errorf("a scrape without the frames counter passed conservation")
	}
	if err := checkConservation(scrape(), 400, 600); err == nil {
		t.Errorf("the frames counter covers live frames only, yet 1000 counted for 400 written passed")
	}

	ok := totals{injected: 4, detected: 4}
	if err := checkDetection(scrape(), ok, 0); err != nil {
		t.Errorf("honest run rejected: %v", err)
	}
	for name, bad := range map[string]totals{
		"dropped error frame":    {injected: 4, detected: 3, missing: 1},
		"unexplained error":      {injected: 4, detected: 4, unexpected: 1},
		"daemon counts one more": {injected: 3, detected: 3},
	} {
		if err := checkDetection(scrape(), bad, 0); err == nil {
			t.Errorf("%s passed the detection check", name)
		}
	}
	if err := checkDetection(scrape(), totals{injected: 1, detected: 1}, 3); err != nil {
		t.Errorf("three recovered reports plus one live are the daemon's four, yet: %v", err)
	}

	if got := shardSkew(scrape(), []int64{500, 500}); got != 1 {
		t.Errorf("shardSkew of the requested placement = %v, want 1", got)
	}
	sc = scrape()
	sc[`trader_ingest_shard_latency_seconds_count{shard="0"}`], sc[`trader_ingest_shard_latency_seconds_count{shard="1"}`] = 1000, 0
	if got := shardSkew(sc, []int64{500, 500}); got != 2 {
		t.Errorf("shardSkew with both connections on one shard = %v, want 2", got)
	}
	if got := shardSkew(scrape(), []int64{1000, 0}); !math.IsInf(got, 1) {
		t.Errorf("shardSkew with frames on an untargeted shard = %v, want +Inf", got)
	}
}

func TestValidateMarksInvalidRuns(t *testing.T) {
	good := func() *result {
		return &result{attempted: 1000,
			e2e: map[string]stat{"daemon_cpu_us_per_frame": {v: 3}},
			layer: map[string]float64{"loadgen.cpu_us_per_frame": 0.9, "loadgen.late_p50_ms": 0.01,
				"fleet.pool.shard_skew": 1, "loadgen.failed_share": 0}}
	}
	paced := workloads[2]
	if err := validate(good(), paced); err != nil {
		t.Errorf("a valid run was marked: %v", err)
	}
	for name, value := range map[string]float64{
		"loadgen.late_p50_ms":      0.2,
		"loadgen.cpu_us_per_frame": 1.1,
		"fleet.pool.shard_skew":    1.5,
		"loadgen.failed_share":     0.002,
	} {
		res := good()
		res.layer[name] = value
		if _, ok := validate(res, paced).(invalidError); !ok {
			t.Errorf("%s = %v was not marked invalid", name, value)
		}
	}
}

// BENCHMARK.json and the program name the same workloads, and the contract's
// own rules hold: setup_s is there and no bound exceeds a quarter.
func TestManifest(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json names workloads %q, the program %q", got, want)
	}
	setup := false
	for _, d := range man.EndToEnd {
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s has bound %v", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Errorf("BENCHMARK.json has no setup_s in seconds, lower is better")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	rec := &recorder{spans: []span{
		{name: "batch", start: 0, end: 10 * ms, parent: -1},
		{name: "wire.decode", start: 1 * ms, end: 4 * ms, parent: 0},
		{name: "core.step", start: 5 * ms, end: 9 * ms, parent: 0},
		{name: "batch", start: 10 * ms, end: 12 * ms, parent: -1, batch: 1},
	}}
	self := rec.selfTimes()
	if self["batch"] != 5*ms || self["wire.decode"] != 3*ms || self["core.step"] != 4*ms {
		t.Errorf("selfTimes = %v", self)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	if err := checkChrome(path, len(rec.spans)); err != nil {
		t.Error(err)
	}
	if err := checkChrome(path, len(rec.spans)+1); err == nil {
		t.Errorf("checkChrome accepted a trace file that lost a span")
	}
}

// TestSmoke runs every workload for one second against a real traderd, with
// the traced pass, in one scratch directory as -selfcheck does, and wants
// both result lines to print against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs traderd")
	}
	wd, _ := os.Getwd()
	sc, err := newScratch()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		reapAll()
		_ = os.Chdir(wd)
		_ = os.RemoveAll(sc.dir)
	}()
	man, err := readManifest(sc.root)
	if err != nil {
		t.Fatal(err)
	}
	// The first workload runs twice: a second run must not trip over what
	// the first left in the scratch directory.
	for _, name := range append(workloadNames(), workloadNames()[0]) {
		cfg := config{workload: name, seed: 11, seconds: 1, trace: true,
			conns: min(runtime.NumCPU(), 4), shards: runtime.NumCPU(), devices: 1000}
		res, err := runWorkload(sc, cfg)
		if errors.As(err, new(invalidError)) {
			// A one-second window on a busy test host may well be invalid,
			// and says so itself.
			t.Logf("%s: %v", name, err)
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, trace := range []bool{false, true} {
			if _, err := resultLine(man, trace, res); err != nil {
				t.Errorf("%s, trace %v: %v", name, trace, err)
			}
		}
	}
	if left, _ := os.ReadDir(sc.dir); len(left) > 0 {
		t.Errorf("%d entries left in the scratch directory, first %s", len(left), left[0].Name())
	}
}
