package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"trader/internal/wire"
)

// workload is one traffic shape. The why of each is in BENCHMARK.json and
// README.md; the constants it names are in loadgen.go.
type workload struct {
	name       string
	paced      bool // open loop (else closed loop)
	tickFrames int
	burstEvery int
	journal    bool // daemon runs with -journal; Hello asks for durability dispatch
	extra      []string
}

var workloads = []workload{
	{name: "wire_saturate", burstEvery: closedBurstEvery},
	{name: "wire_durable", burstEvery: closedBurstEvery, journal: true,
		extra: []string{"-credit-window", "1024", "-shed", "-recover", "default"}},
	{name: "wire_paced", paced: true, tickFrames: pacedTickFrames, burstEvery: pacedBurstEvery},
	{name: "fleet_recover", paced: true, tickFrames: recoverTickFrames, burstEvery: pacedBurstEvery, journal: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// journalBoot reports whether the workload measures cold boots on a
// journal rather than one long-running daemon.
func (w workload) journalBoot() bool { return w.name == "fleet_recover" }

func (w workload) durability() wire.Durability {
	if w.journal {
		// Ack-on-dispatch: an echo must not wait for the disk, or the
		// workload would measure the host's fsync latency.
		return wire.DurDispatch
	}
	return ""
}

func (w workload) daemonArgs() []string {
	if w.journal {
		return append([]string{"-journal", "journal"}, w.extra...)
	}
	return w.extra
}

// runWorkload runs cfg.workload once and, with -trace 1, the traced pass
// after it, in a working directory of its own that is gone when it returns.
func runWorkload(sc *scratch, cfg config) (*result, error) {
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		work, err := os.MkdirTemp(sc.dir, w.name+"-")
		if err != nil {
			return nil, err
		}
		// Socket paths are relative to the working directory (see sockName).
		if err := os.Chdir(work); err != nil {
			return nil, err
		}
		defer func() {
			_ = os.Chdir(sc.dir)
			_ = os.RemoveAll(work)
		}()
		var res *result
		var journalDir string
		if w.journalBoot() {
			res, journalDir, err = runRecover(sc, cfg, w)
		} else {
			res, err = runWire(sc, cfg, w)
		}
		if err == nil && cfg.trace {
			err = tracedPass(cfg, w, journalDir, res)
		}
		return res, err
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// binary returns the daemon to run: -traderd's, or a fresh build.
func (s *scratch) binary(cfg config) (string, error) {
	if cfg.traderd != "" {
		return cfg.traderd, nil
	}
	return s.bin, s.build()
}

// mixesFor returns one stream per connection, connection i placed on shard
// i mod shards.
func mixesFor(cfg config, w workload) []*mix {
	mixes := make([]*mix, cfg.conns)
	for i := range mixes {
		id := deviceID(cfg.seed, i, i%cfg.shards, cfg.shards)
		mixes[i] = newMix(id, subSeed(cfg.seed, i), w.burstEvery)
	}
	return mixes
}

// runWire runs one of the three wire_* workloads: set up (setups times, for
// setup_s), drive the daemon through warm-up and the timed window, then
// scrape it, stop it, and hold what it says against what was written.
func runWire(sc *scratch, cfg config, w workload) (*result, error) {
	var setupTimes []float64
	var d *daemon
	var clients []*client
	var boot time.Duration
	for i := 0; i < setups; i++ {
		if d != nil {
			closeAll(clients)
			d.stop()
			_ = os.RemoveAll(d.dir)
		}
		t := time.Now()
		bin, err := sc.binary(cfg)
		if err != nil {
			return nil, err
		}
		dir := fmt.Sprintf("d%d", i)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		if d, err = startDaemon(bin, dir, cfg.shards, w.daemonArgs()...); err != nil {
			return nil, err
		}
		if clients, boot, err = dialAll(d, mixesFor(cfg, w), w.durability()); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	readings, err := drive(d, clients, w.paced, w.tickFrames, cfg.warmup(), cfg.window(), slices)
	if err != nil {
		return nil, err
	}
	h, err := harvest(d, clients)
	if err != nil {
		return nil, err
	}
	t, scrape, acks, detects := h.t, h.scrape, h.acks, h.detects
	if err := checkConservation(scrape, t.sent, 0); err != nil {
		return nil, err
	}
	if err := checkDetection(scrape, t, 0); err != nil {
		return nil, err
	}
	sentPerShard := make([]int64, cfg.shards)
	var writeMax time.Duration
	for i, c := range clients {
		sentPerShard[i%cfg.shards] += c.sent
		writeMax = max(writeMax, c.writeMax)
	}
	if w.paced {
		if err := checkBacklog(acks, readings); err != nil {
			return nil, err
		}
	}

	var fps, cpu []float64
	for i := 0; i+1 < len(readings); i++ {
		a, b := readings[i], readings[i+1]
		frames := float64(b.acked - a.acked)
		if frames == 0 {
			return nil, fmt.Errorf("slice %d of the timed window acknowledged no frames", i+1)
		}
		fps = append(fps, frames/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, (b.daemonCPU-a.daemonCPU)/frames*1e6)
	}
	first, last := readings[0], readings[len(readings)-1]
	timed := float64(last.acked - first.acked)
	rss := h.peakKB / float64(cfg.conns)
	res := &result{
		attempted: t.sent + t.probes + t.injected,
		e2e: map[string]stat{
			"setup_s":                 medianOf(setupTimes),
			"ingest_frames_per_s":     medianOf(fps),
			"daemon_cpu_us_per_frame": medianOf(cpu),
			"rss_kb_per_device":       single(rss, 1),
			"ack_p50_ms":              slicePercentile(acks, readings, 0.5),
			"detect_p50_ms":           slicePercentile(detects, readings, 0.5),
		},
		layer: make(map[string]float64),
	}
	shedObs, shedHB := scrapeShed(scrape)
	res.failed = shedObs + shedHB + t.lostProbes + t.unanswered
	lateMs := inSlice(h.late, first.at, last.at)
	res.layer["loadgen.cpu_us_per_frame"] = (last.selfCPU - first.selfCPU) / timed * 1e6
	res.layer["loadgen.late_p50_ms"] = percentile(lateMs, 0.5)
	res.layer["loadgen.late_p99_ms"] = percentile(lateMs, 0.99)
	res.layer["loadgen.write_stall_ms"] = float64(writeMax) / 1e6
	res.layer["traderd.boot_ms"] = float64(boot) / 1e6
	res.layer["traderd.empty_rss_mb"] = 0
	res.layer["fleet.pool.shard_skew"] = shardSkew(scrape, sentPerShard)
	fillLoadgen(res, t, acks, detects, first.at, last.at)
	fillFromDaemon(res, scrape, h.ru, h.peakKB, float64(t.sent))
	return res, validate(res, w)
}

// fillLoadgen records the load generator's own counts, and the latency
// tails over the whole timed window at the highest percentile the samples
// support. The tails are not end-to-end metrics: ten A/A runs on the 2-core
// reference host spread ack p99 by 40-120 % of its median, and only
// wire_paced injects the thousand bursts a detection p99 needs.
func fillLoadgen(res *result, t totals, acks, detects []sample, from, to time.Time) {
	am, dm := inSlice(acks, from, to), inSlice(detects, from, to)
	res.layer["loadgen.ack_p99_ms"] = percentile(am, supportedTail(len(am), 0.99))
	res.layer["loadgen.detect_p99_ms"] = percentile(dm, supportedTail(len(dm), 0.99))
	res.layer["loadgen.detect_samples"] = float64(len(dm))
	res.layer["loadgen.probes"] = float64(t.probes)
	res.layer["loadgen.failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))
}

// fillFromDaemon records the per-layer metrics read from the daemon's final
// scrape and its rusage, per observation it was sent over its whole life.
func fillFromDaemon(res *result, sc map[string]float64, ru *syscall.Rusage, peakKB, frames float64) {
	shedObs, shedHB := scrapeShed(sc)
	l := res.layer
	l["fleet.server.frames_total"] = sc["trader_fleet_frames_total"]
	l["fleet.server.shed_total"] = float64(shedObs + shedHB)
	l["fleet.server.credit_grants_total"] = sc["trader_credit_grants_total"]
	l["fleet.pool.dispatched_total"] = sc["trader_fleet_dispatched_total"]
	l["fleet.pool.ingest_to_dispatch_p50_us"] = sc[`trader_ingest_latency_quantile_seconds{quantile="0.5"}`] * 1e6
	l["fleet.pool.ingest_to_dispatch_p99_us"] = sc[`trader_ingest_latency_quantile_seconds{quantile="0.99"}`] * 1e6
	l["journal.appends_total"] = sc["trader_journal_appends_total"]
	l["journal.fsyncs_total"] = sc["trader_journal_fsyncs_total"]
	l["journal.appends_per_fsync"] = 0
	if n := sc["trader_journal_fsyncs_total"]; n > 0 {
		l["journal.appends_per_fsync"] = sc["trader_journal_appends_total"] / n
	}
	l["traderd.user_cpu_us_per_frame"] = tvSeconds(ru.Utime) / frames * 1e6
	l["traderd.sys_cpu_us_per_frame"] = tvSeconds(ru.Stime) / frames * 1e6
	l["traderd.ctx_switches_per_kframe"] = float64(ru.Nvcsw+ru.Nivcsw) / frames * 1e3
	l["traderd.max_rss_mb"] = peakKB / 1024
	l["traderd.heap_mb"] = sc["trader_process_heap_bytes"] / (1 << 20)
	l["traderd.gc_pause_p99_ms"] = sc["trader_process_gc_pause_p99_seconds"] * 1e3
	l["traderd.goroutines"] = sc["trader_process_goroutines"]
}

// validate refuses runs in which the load generator, not the daemon, set
// the numbers, and runs that lost more than a thousandth of their work.
func validate(res *result, w workload) error {
	l := res.layer
	daemon := res.e2e["daemon_cpu_us_per_frame"].v
	switch {
	case l["loadgen.failed_share"] > 0.001:
		return invalidError{fmt.Sprintf("%d of %d operations failed (shed, refused or unanswered)", res.failed, res.attempted)}
	case w.paced && l["loadgen.late_p50_ms"] > 0.1:
		return invalidError{fmt.Sprintf("the pacer ran %.3f ms late at the median; the offered load was not the stated one", l["loadgen.late_p50_ms"])}
	case !w.journalBoot() && l["loadgen.cpu_us_per_frame"] > daemon/3:
		// Not judged on fleet_recover: its short live phase paces a tenth
		// of wire_paced's rate, so the pacer's spin dominates a generator
		// that is not competing with the boot being measured.
		return invalidError{fmt.Sprintf("the load generator spent %.3f µs per frame, more than a third of the daemon's %.3f µs", l["loadgen.cpu_us_per_frame"], daemon)}
	case l["fleet.pool.shard_skew"] > 1.05:
		return invalidError{fmt.Sprintf("shard skew %.3f: connections did not land on the shards their IDs were chosen for", l["fleet.pool.shard_skew"])}
	}
	return nil
}

// liveTicks is how long each cold boot serves reconnecting devices before
// it is stopped: half a second of paced traffic.
const liveTicks = 500

// harvested is what a daemon and its connections yield once the senders are
// done: the final scrape, the kernel's accounting, and what the load
// generator saw.
type harvested struct {
	scrape              map[string]float64
	ru                  *syscall.Rusage
	peakKB              float64
	t                   totals
	acks, detects, late []sample
}

// harvest scrapes d, closes the connections, stops d and gathers the
// clients' samples. A daemon that died or a connection that failed is an
// error.
func harvest(d *daemon, clients []*client) (*harvested, error) {
	if d.exited() {
		return nil, fmt.Errorf("traderd exited during the run:\n%s", d.logTail())
	}
	h := &harvested{}
	var err error
	if h.scrape, err = d.scrape(); err != nil {
		return nil, err
	}
	if h.peakKB, err = d.peakRSSKB(); err != nil {
		return nil, err
	}
	closeAll(clients)
	if h.ru = d.stop(); h.ru == nil {
		return nil, fmt.Errorf("no rusage for the daemon")
	}
	h.t = sumClients(clients)
	if len(h.t.connErrors) > 0 {
		return nil, fmt.Errorf("connection failed:\n  %s\n%s", strings.Join(h.t.connErrors, "\n  "), d.logTail())
	}
	for _, c := range clients {
		h.acks = append(h.acks, c.acks...)
		h.detects = append(h.detects, c.detects...)
		h.late = append(h.late, c.late...)
	}
	return h, nil
}

// bootSample is one cold boot of fleet_recover.
type bootSample struct {
	*harvested
	boot    time.Duration // exec → first Hello reply
	selfCPU float64
}

// coldBoot runs one cold boot: link the journal into a private directory,
// exec traderd -journal on it, wait until it has recovered and answers a
// Hello, let the first conns journaled devices reconnect and stream for
// liveTicks, then scrape, stop and check it.
func coldBoot(bin string, cfg config, w workload, journalDir string, spec *journalSpec, k int) (*bootSample, error) {
	dir := fmt.Sprintf("boot%d", k)
	if err := linkJournal(journalDir, filepath.Join(dir, "journal")); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(bin, dir, cfg.shards, w.daemonArgs()...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	mixes := make([]*mix, len(spec.resume))
	for i, m := range spec.resume {
		mixes[i] = m.clone()
		// The journaled prefix is not this connection's traffic: bursts
		// are spaced from the reconnect on.
		mixes[i].burstEvery, mixes[i].burstAt, mixes[i].n = w.burstEvery, 0, 0
	}
	clients, boot, err := dialAll(d, mixes, w.durability())
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var stop atomic.Bool
	_, wait := startSenders(clients, true, w.tickFrames, liveTicks, &stop)
	wait()
	b := &bootSample{boot: boot, selfCPU: selfCPUSeconds() - self0}
	if b.harvested, err = harvest(d, clients); err != nil {
		return nil, err
	}
	// Recovery: the booted daemon holds exactly the devices, dispatched
	// observations and error reports the generator wrote, plus what the
	// reconnected devices sent since.
	if got := int(b.scrape["trader_fleet_devices"]); got != spec.devices {
		return nil, fmt.Errorf("recovery: journal holds %d devices, the booted daemon reports %d", spec.devices, got)
	}
	if err := checkConservation(b.scrape, b.t.sent, int64(spec.observations)); err != nil {
		return nil, err
	}
	if err := checkDetection(b.scrape, b.t, int64(spec.reports)); err != nil {
		return nil, err
	}
	return b, nil
}

// runRecover is fleet_recover: write the journal (setups times, for
// setup_s), then cold-boot the daemon on it again and again for the timed
// window. The first boot warms the page cache and is discarded.
func runRecover(sc *scratch, cfg config, w workload) (*result, string, error) {
	var setupTimes []float64
	var spec *journalSpec
	var bin string
	const journalDir = "journal"
	for i := 0; i < setups; i++ {
		_ = os.RemoveAll(journalDir)
		t := time.Now()
		var err error
		if bin, err = sc.binary(cfg); err != nil {
			return nil, "", err
		}
		if spec, err = writeJournal(journalDir, cfg.seed, cfg.devices, cfg.shards, cfg.conns); err != nil {
			return nil, "", err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}

	// An empty-journal boot is the fixed part of the daemon's memory.
	emptyRSS, err := emptyBoot(bin, cfg, w)
	if err != nil {
		return nil, "", err
	}

	var boots []*bootSample
	var start time.Time
	for k := 0; ; k++ {
		b, err := coldBoot(bin, cfg, w, journalDir, spec, k)
		if err != nil {
			return nil, "", fmt.Errorf("boot %d: %w", k, err)
		}
		if k == 0 {
			start = time.Now()
			continue
		}
		boots = append(boots, b)
		if time.Since(start) >= cfg.window() && len(boots) >= 3 {
			break
		}
	}

	res := &result{e2e: make(map[string]stat), layer: make(map[string]float64)}
	var fps, cpu, rss, bootMs []float64
	var acks, detects, late []sample
	var t totals
	var selfCPU float64
	for _, b := range boots {
		work := float64(spec.records) + float64(b.t.sent)
		fps = append(fps, float64(spec.records)/b.boot.Seconds())
		cpu = append(cpu, (tvSeconds(b.ru.Utime)+tvSeconds(b.ru.Stime))/work*1e6)
		rss = append(rss, b.peakKB/float64(spec.devices))
		bootMs = append(bootMs, float64(b.boot)/1e6)
		acks = append(acks, b.acks...)
		detects = append(detects, b.detects...)
		late = append(late, b.late...)
		selfCPU += b.selfCPU
		t.add(b.t)
		shedObs, shedHB := scrapeShed(b.scrape)
		res.failed += shedObs + shedHB
	}
	res.failed += t.lostProbes + t.unanswered
	res.attempted = int64(len(boots)) + t.sent + t.probes + t.injected
	// Latencies are pooled over the boots: each serves half a second.
	now := time.Now()
	pooled := func(samples []sample, p float64) stat {
		ms := inSlice(samples, time.Time{}, now)
		return single(percentile(ms, supportedTail(len(ms), p)), len(ms))
	}
	res.e2e["setup_s"] = medianOf(setupTimes)
	res.e2e["ingest_frames_per_s"] = medianOf(fps)
	res.e2e["daemon_cpu_us_per_frame"] = medianOf(cpu)
	res.e2e["rss_kb_per_device"] = medianOf(rss)
	res.e2e["ack_p50_ms"] = pooled(acks, 0.5)
	res.e2e["detect_p50_ms"] = pooled(detects, 0.5)

	last := boots[len(boots)-1]
	lateMs := pooled(late, 0.5)
	sentPerShard := make([]int64, cfg.shards)
	for i := 0; i < cfg.conns; i++ {
		sentPerShard[i%cfg.shards] += last.t.sent / int64(cfg.conns)
	}
	res.layer["loadgen.cpu_us_per_frame"] = selfCPU / float64(t.sent) * 1e6
	res.layer["loadgen.late_p50_ms"] = lateMs.v
	res.layer["loadgen.late_p99_ms"] = pooled(late, 0.99).v
	res.layer["loadgen.write_stall_ms"] = 0
	res.layer["traderd.boot_ms"] = medianOf(bootMs).v
	res.layer["traderd.empty_rss_mb"] = emptyRSS
	res.layer["fleet.pool.shard_skew"] = shardSkew(last.scrape, sentPerShard)
	fillLoadgen(res, t, acks, detects, time.Time{}, now)
	fillFromDaemon(res, last.scrape, last.ru, last.peakKB, float64(spec.records)+float64(last.t.sent))
	return res, journalDir, validate(res, w)
}

// emptyBoot boots the daemon on an empty journal and returns its peak RSS
// in MB: what a daemon costs before it holds a single device.
func emptyBoot(bin string, cfg config, w workload) (float64, error) {
	const dir = "empty"
	if err := os.Mkdir(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(bin, dir, cfg.shards, w.daemonArgs()...)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	clients, _, err := dialAll(d, mixesFor(cfg, w)[:1], w.durability())
	if err != nil {
		return 0, err
	}
	defer closeAll(clients)
	kb, err := d.peakRSSKB()
	return kb / 1024, err
}
