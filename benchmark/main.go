// Command benchmark is the repository's benchmark. It builds cmd/traderd,
// runs it as a child process and drives it from this one load-generator
// process over a Unix socket speaking the §2 wire protocol, so every
// end-to-end number is taken at the surface operators use: CLI flags, wire
// frames, /metrics and the kernel's accounting of the daemon. A traced pass
// (-trace 1) rebuilds the frame path in-process from each layer's public
// functions over the same seeded frames and reports per-layer self times
// next to the end-to-end cost per frame.
//
// BENCHMARK.json at the repository root names the command, the workloads
// and every metric; README.md in this directory is the glossary.
//
// Usage (from the repository root; run.sh builds this module into
// .bench_build and passes its arguments on):
//
//	sh benchmark/run.sh --workload wire_saturate --seed 1 --seconds 15 --trace 0
//	sh benchmark/run.sh --workload wire_saturate --seed 1 --seconds 15 --trace 1 [--out DIR]
//	sh benchmark/run.sh --selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// manifest is what this program reads of BENCHMARK.json: the names it must
// print against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// config is one invocation's sizing. conns = min(nproc, 4); the daemon gets
// one shard per processor.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // trace output directory ("" → the run directory)
	traderd  string // prebuilt daemon to measure instead of building one
	conns    int
	shards   int
	devices  int // fleet_recover journal size
}

// slices is how many equal parts the timed window is cut into; every
// end-to-end metric is the median of the per-slice values.
const slices = 6

// setups is how many times a run sets up; setup_s is the median.
const setups = 5

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// warmup is discarded: page cache, heap growth and the Go scheduler settle.
func (c config) warmup() time.Duration { return min(3*time.Second, c.window()) }

// result is everything one run measured.
type result struct {
	attempted, failed int64
	e2e               map[string]stat
	layer             map[string]float64
}

// invalidError marks a run whose numbers must not be read: the load
// generator, not the daemon, shaped them.
type invalidError struct{ reason string }

func (e invalidError) Error() string { return "invalid run: " + e.reason }

func main() {
	// Children are started from this goroutine only, and it stays on the
	// main thread, so their parent-death signal follows the process.
	runtime.LockOSThread()
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: also the traced pass, and print the per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory the traced pass writes trace-<workload>.json to (default: the run's scratch directory, removed on exit)")
	flag.StringVar(&cfg.traderd, "traderd", "", "measure this prebuilt traderd binary instead of building cmd/traderd (paired comparisons)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice, alternating, and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.conns = min(runtime.NumCPU(), 4)
	cfg.shards = runtime.NumCPU()
	cfg.devices = 20000
	if flag.NArg() > 0 || cfg.seconds < 1 || (!selfcheck && cfg.workload == "") {
		flag.Usage()
		return 2
	}
	for _, path := range []*string{&cfg.out, &cfg.traderd} {
		if *path == "" {
			continue
		}
		abs, err := filepath.Abs(*path)
		if err != nil {
			return fail(err)
		}
		*path = abs
	}
	return run(cfg, selfcheck)
}

// run does one invocation inside a scratch directory of its own, which it
// removes — after reaping every child — however it ends: return, panic or
// signal.
func run(cfg config, selfcheck bool) int {
	sc, err := newScratch()
	if err != nil {
		return fail(err)
	}
	cleanup := func() {
		reapAll()
		_ = os.Chdir(sc.root)
		_ = os.RemoveAll(sc.dir)
	}
	defer cleanup() // also runs when this goroutine panics
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			cleanup()
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	man, err := readManifest(sc.root)
	if err != nil {
		return fail(err)
	}
	printEnv(sc.root, cfg)

	if selfcheck {
		return runSelfcheck(sc, man, cfg)
	}
	res, err := runWorkload(sc, cfg)
	if err != nil {
		return fail(err)
	}
	printReport(man, cfg, res)
	line, err := resultLine(man, cfg.trace, res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(line)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	if errors.As(err, new(invalidError)) {
		return 3
	}
	return 1
}

// printEnv records what the numbers were taken on.
func printEnv(root string, cfg config) {
	commit := "unknown"
	// Only a checkout that is itself a repository: git would otherwise walk
	// up and name some enclosing repository's commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("env: %s %s/%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d seconds=%d conns=%d shards=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		commit, cfg.seed, cfg.seconds, cfg.conns, cfg.shards)
}

// resultLine renders the contract's last line: exactly the end-to-end
// metrics (trace off) or exactly the per-layer metrics (trace on), each by
// the name and unit BENCHMARK.json gives it.
func resultLine(man *manifest, trace bool, res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	defs := man.EndToEnd
	if trace {
		defs = man.PerLayer
	}
	for _, d := range defs {
		v, ok := res.layer[d.Name]
		if !trace {
			var s stat
			s, ok = res.e2e[d.Name]
			v = s.v
			if ok && v == 0 {
				return "", fmt.Errorf("end-to-end metric %s measured 0", d.Name)
			}
		}
		if !ok {
			return "", fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	return string(b), err
}

// printReport is the human-readable half: every metric by name and unit,
// end-to-end ones with the range over the slices they are the median of.
func printReport(man *manifest, cfg config, res *result) {
	fmt.Printf("\n%s: attempted %d, failed %d\n", cfg.workload, res.attempted, res.failed)
	for _, d := range man.EndToEnd {
		if s, ok := res.e2e[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %-9s [min %.4f, max %.4f over %d] bound %.2f\n",
				d.Name, s.v, d.Unit, s.min, s.max, s.n, d.Bound)
		}
	}
	units := make(map[string]string)
	for _, d := range man.PerLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(res.layer))
	for name := range res.layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %16.4f %s\n", name, res.layer[name], units[name])
	}
}

// runSelfcheck is the A/A test: every workload twice on the same binary,
// alternating, and no end-to-end metric may differ by more than its bound.
func runSelfcheck(sc *scratch, man *manifest, cfg config) int {
	runs := make(map[string][]*result)
	for round := 0; round < 2; round++ {
		for _, name := range workloadNames() {
			c := cfg
			c.workload, c.trace = name, false
			c.seed = cfg.seed + int64(round)
			res, err := runWorkload(sc, c)
			if err != nil {
				return fail(fmt.Errorf("%s (round %d): %w", name, round+1, err))
			}
			printReport(man, c, res)
			runs[name] = append(runs[name], res)
		}
	}
	fmt.Printf("\nselfcheck: A/A spread per workload and end-to-end metric (|a-b| ÷ a)\n")
	ok := true
	for _, name := range workloadNames() {
		for _, d := range man.EndToEnd {
			a, b := runs[name][0].e2e[d.Name].v, runs[name][1].e2e[d.Name].v
			spread := 0.0
			if a != 0 {
				spread = (b - a) / a
				if spread < 0 {
					spread = -spread
				}
			}
			verdict := "ok"
			if spread > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-14s %-26s a=%-14.4f b=%-14.4f spread=%.4f bound=%.2f %s\n",
				name, d.Name, a, b, spread, d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck failed: two runs of one binary disagree by more than a bound")
		return 1
	}
	return 0
}
