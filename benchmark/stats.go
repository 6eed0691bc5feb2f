package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// This file is the arithmetic and the correctness checks: medians over the
// slices of a timed window, percentiles with the ten-beyond rule, and the
// conservation and detection checks read off the daemon's own scrape.

// stat is one reported number with the spread it was the median of.
type stat struct {
	v, min, max float64
	n           int // values the median was taken over
}

// single is a stat that is one value, not a median: v over n samples.
func single(v float64, n int) stat { return stat{v: v, min: v, max: v, n: n} }

// medianOf returns the median of vs and their range. An empty vs yields a
// zero stat, which callers treat as "no samples".
func medianOf(vs []float64) stat {
	if len(vs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stat{v: m, min: s[0], max: s[len(s)-1], n: len(s)}
}

// percentile is the nearest-rank percentile p (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supportedTail is the highest percentile, at most want, that still has ten
// samples beyond it: a p99 of 300 samples would be decided by three of
// them. With fewer than twenty samples nothing above the median is
// supported and the median itself is returned.
func supportedTail(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// inSlice returns the sorted latencies (ms) of the samples completed in
// (from, to].
func inSlice(samples []sample, from, to time.Time) []float64 {
	var ds []time.Duration
	for _, s := range samples {
		if s.at.After(from) && !s.at.After(to) {
			ds = append(ds, s.lat)
		}
	}
	return millis(ds)
}

// slicePercentile takes percentile p of the samples in each slice of the
// timed window and returns the median over the slices that had samples.
func slicePercentile(samples []sample, readings []reading, p float64) stat {
	var per []float64
	for i := 0; i+1 < len(readings); i++ {
		if ms := inSlice(samples, readings[i].at, readings[i+1].at); len(ms) > 0 {
			per = append(per, percentile(ms, supportedTail(len(ms), p)))
		}
	}
	return medianOf(per)
}

// totals is what the load generator knows it did, summed over connections.
type totals struct {
	sent       int64 // observations written
	probes     int64
	injected   int64 // deviation bursts written
	detected   int64 // error frames matched to a burst
	missing    int64 // bursts never answered
	lostProbes int64
	unanswered int64 // probes still outstanding after the drain
	unexpected int64 // error frames or echoes nothing explains
	connErrors []string
}

// add folds o's counts into t.
func (t *totals) add(o totals) {
	t.sent += o.sent
	t.probes += o.probes
	t.injected += o.injected
	t.detected += o.detected
	t.missing += o.missing
	t.lostProbes += o.lostProbes
	t.unanswered += o.unanswered
	t.unexpected += o.unexpected
}

func sumClients(clients []*client) totals {
	var t totals
	for _, c := range clients {
		t.sent += c.sent
		t.probes += c.probesSent
		t.injected += c.injected
		t.detected += int64(len(c.detects))
		t.missing += int64(c.bursts.len())
		t.lostProbes += c.lostProbes
		t.unanswered += int64(c.probes.len())
		t.unexpected += c.unexplained
		for _, err := range []error{c.sendErr, c.readErr} {
			if err != nil {
				t.connErrors = append(t.connErrors, c.id+": "+err.Error())
			}
		}
		if c.refused != "" {
			t.connErrors = append(t.connErrors, c.id+": refused by the daemon: "+c.refused)
		}
	}
	return t
}

// scrapeShed is the number of frames the daemon says it refused.
func scrapeShed(sc map[string]float64) (obs, hb int64) {
	return int64(sc[`trader_shed_frames_total{tier="observation"}`]),
		int64(sc[`trader_shed_frames_total{tier="heartbeat"}`])
}

// checkConservation holds the daemon's scrape against what was written:
// every observation is either dispatched to a monitor or counted as shed.
// preloaded is what a recovered journal had already dispatched.
func checkConservation(sc map[string]float64, sent, preloaded int64) error {
	for _, k := range []string{"trader_fleet_dispatched_total", "trader_fleet_frames_total",
		`trader_shed_frames_total{tier="observation"}`} {
		if _, ok := sc[k]; !ok {
			return fmt.Errorf("conservation: scrape has no %s", k)
		}
	}
	shed, _ := scrapeShed(sc)
	if got := int64(sc["trader_fleet_dispatched_total"]); got+shed != sent+preloaded {
		return fmt.Errorf("conservation: wrote %d observations (+%d recovered) but the daemon dispatched %d and shed %d",
			sent, preloaded, got, shed)
	}
	if got := int64(sc["trader_fleet_frames_total"]); got+shed != sent {
		return fmt.Errorf("conservation: wrote %d observations but the server counted %d frames and shed %d",
			sent, got, shed)
	}
	return nil
}

// checkDetection holds the error frames received against the bursts
// injected: one comparator report per burst with the injected values, none
// besides, and the daemon's own report count agrees. preloaded is the
// number of reports a recovered journal re-raised.
func checkDetection(sc map[string]float64, t totals, preloaded int64) error {
	switch {
	case t.unexpected > 0:
		return fmt.Errorf("detection: %d error frames or echoes that no injected burst or probe explains", t.unexpected)
	case t.missing > 0 || t.detected != t.injected:
		return fmt.Errorf("detection: injected %d bursts, received %d matching error frames (%d never answered)",
			t.injected, t.detected, t.missing)
	}
	if got := int64(sc["trader_fleet_reports_total"]); got != t.injected+preloaded {
		return fmt.Errorf("detection: injected %d bursts (+%d recovered) but the daemon counts %d reports",
			t.injected, preloaded, got)
	}
	return nil
}

// checkBacklog is the open-loop validity check: when the echo lag of the
// last slice is more than twice the first's, the daemon is not keeping up
// with the offered rate and the latencies describe a growing queue.
func checkBacklog(acks []sample, readings []reading) error {
	n := len(readings)
	if n < 3 {
		return nil
	}
	first := inSlice(acks, readings[0].at, readings[1].at)
	last := inSlice(acks, readings[n-2].at, readings[n-1].at)
	if len(first) == 0 || len(last) == 0 {
		return fmt.Errorf("open loop: a slice of the timed window has no echoes")
	}
	a, b := percentile(first, 0.5), percentile(last, 0.5)
	if b > 2*a && b-a > 1 {
		return fmt.Errorf("open loop: backlog grows, echo lag p50 went from %.3f ms to %.3f ms", a, b)
	}
	return nil
}

// shardSkew measures placement from the scrape: for every shard, the
// frames its latency histogram counted ÷ the frames written by the
// connections whose IDs were chosen to land on it, and of those ratios the
// largest. 1.0 is the placement the inputs asked for; two connections
// sharing a shard read about 2.0, and frames on a shard nobody targeted
// read +Inf.
func shardSkew(sc map[string]float64, sentPerShard []int64) float64 {
	worst := 0.0
	for i, sent := range sentPerShard {
		n := sc[`trader_ingest_shard_latency_seconds_count{shard="`+strconv.Itoa(i)+`"}`]
		switch {
		case sent > 0:
			worst = math.Max(worst, n/float64(sent))
		case n > 0:
			return math.Inf(1)
		}
	}
	return worst
}
