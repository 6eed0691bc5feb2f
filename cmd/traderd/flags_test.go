package main

import (
	"strings"
	"testing"

	"trader/internal/control"
	"trader/internal/daemon"
	"trader/internal/spectrum"
)

// TestConfigValidate has one refusing row per cross-flag rule, the
// mixed-mode refusals among them, and one accepting row per flag set the
// CI soak steps and the benchmark workloads run traderd with.
func TestConfigValidate(t *testing.T) {
	const (
		listen = "tcp:127.0.0.1:7641"
		edge   = "upstream=tcp:127.0.0.1:7621,range=0/2"
	)
	def, ochiai := control.DefaultPolicy(), spectrum.Ochiai
	bench := daemon.Config{Listen: "unix:traderd.sock", SUO: "light", Shards: 2, Metrics: "127.0.0.1:9464"}
	durable, recovering := bench, bench
	durable.Journal, recovering.Journal, recovering.CreditWindow, recovering.Shed, recovering.Recover = "journal", "journal", 1024, true, def
	reboot := daemon.Config{Listen: listen, Shards: 4, Journal: "/tmp/j", CheckpointSeconds: 2, Recover: def,
		Diagnose: ochiai, DiagnoseContinuous: true, Metrics: "127.0.0.1:7642"}
	incidents := reboot
	incidents.IncidentDir = "/tmp/inc"
	for _, tc := range []struct {
		name      string
		aggregate bool
		cfg       daemon.Config
		want      string // a prefix of the refusal; empty: accepted
	}{
		{"journal without listen", false, daemon.Config{Journal: "/tmp/j"}, "-journal requires -listen"},
		{"pprof without metrics", false, daemon.Config{Listen: listen, Pprof: true}, "-pprof requires -metrics"},
		{"aggregate without listen", true, daemon.Config{}, "-aggregate requires -listen"},
		{"aggregate and edge", true, daemon.Config{Listen: listen, Edge: edge}, "-aggregate and -edge are different tiers"},
		{"edge without listen", false, daemon.Config{Edge: edge}, "-edge requires -listen"},
		{"recover without listen", false, daemon.Config{Recover: def}, "-recover requires -listen"},
		{"diagnose without recover", false, daemon.Config{Listen: listen, Diagnose: ochiai}, "-diagnose requires -recover"},
		{"continuous without diagnose", false, daemon.Config{Listen: listen, DiagnoseContinuous: true}, "-diagnose-continuous requires -diagnose"},
		{"checkpoint without journal", false, daemon.Config{Listen: listen, CheckpointSeconds: 5}, "-checkpoint-seconds requires -journal"},
		{"incident-dir without recover", false, daemon.Config{Listen: listen, IncidentDir: "/tmp/inc"}, "-incident-dir requires -recover"},
		{"overload controls without listen", false, daemon.Config{Replay: "/tmp/j", Shed: true}, "-credit-window, -shed and -metrics require -listen"},
		{"no mode: traderd prints usage", false, daemon.Config{}, daemon.ErrNoMode.Error()},
		// Mixed modes: every flag here used to be accepted and ignored.
		{"replay with listen", false, daemon.Config{Replay: "/tmp/j", Listen: listen, Recover: def, CheckpointSeconds: 5, CreditWindow: 8}, "-replay and -listen are different modes"},
		{"aggregate with ingest flags", true, daemon.Config{Listen: listen, Recover: def, Diagnose: ochiai, Shed: true,
			CreditWindow: 8, IncidentDir: "/tmp/inc"}, "-aggregate ingests no devices"},
		{"replay with recover", false, daemon.Config{Replay: "/tmp/j", Recover: def}, "-recover requires -listen"},
		{"replay with continuous diagnosis", false, daemon.Config{Replay: "/tmp/j", Diagnose: ochiai, DiagnoseContinuous: true}, "-max-advance and -diagnose-continuous require -listen"},
		{"replay with max-advance", false, daemon.Config{Replay: "/tmp/j", MaxAdvance: 60}, "-max-advance and -diagnose-continuous require -listen"},
		// ci.yml's soak steps. The chaos soak runs -recover without
		// -journal: kept, with quarantine durable only with a journal.
		{"ci chaos soak: recover without journal", false, daemon.Config{Listen: "tcp:127.0.0.1:7611", Shards: 4, Shed: true, CreditWindow: 256,
			Metrics: "127.0.0.1:7612", Recover: def, Diagnose: ochiai, DiagnoseContinuous: true}, ""},
		{"ci federation aggregator", true, daemon.Config{Listen: "tcp:127.0.0.1:7621", Journal: "/tmp/fed-agg", Metrics: "127.0.0.1:7622"}, ""},
		{"ci federation edge", false, daemon.Config{Listen: "tcp:127.0.0.1:7631", Shards: 4, Journal: "/tmp/fed-e0", Edge: edge}, ""},
		{"ci aggregator reboot", true, daemon.Config{Listen: "tcp:127.0.0.1:7621", Journal: "/tmp/fed-agg"}, ""},
		{"ci journaled reboot, first daemon", false, incidents, ""},
		{"ci journaled reboot", false, reboot, ""},
		{"ci offline replay", false, daemon.Config{Replay: "/tmp/j", Shards: 4, Diagnose: ochiai}, ""},
		// benchmark/workloads.go.
		{"wire_saturate, wire_paced", false, bench, ""},
		{"wire_durable", false, recovering, ""},
		{"fleet_recover", false, durable, ""},
	} {
		err := flags{Config: tc.cfg, aggregate: tc.aggregate}.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want %q…", tc.name, err, tc.want)
		}
	}
}
