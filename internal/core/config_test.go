package core_test

import (
	"strings"
	"testing"

	"trader/internal/core"
	"trader/internal/sim"
)

func TestConfigurationValidateTable(t *testing.T) {
	valid := core.Observable{EventName: "out", ValueName: "x", ModelVar: "x"}
	cases := []struct {
		name    string
		cfg     core.Configuration
		wantErr string // substring; empty means valid
	}{
		{name: "empty observables is vacuous but valid",
			cfg: core.Configuration{}},
		{name: "zero threshold means exact match and is valid",
			cfg: core.Configuration{Observables: []core.Observable{valid}}},
		{name: "missing EventName",
			cfg:     core.Configuration{Observables: []core.Observable{{ValueName: "x", ModelVar: "x"}}},
			wantErr: "needs EventName"},
		{name: "missing ValueName",
			cfg:     core.Configuration{Observables: []core.Observable{{EventName: "out", ModelVar: "x"}}},
			wantErr: "needs EventName"},
		{name: "missing ModelVar",
			cfg:     core.Configuration{Observables: []core.Observable{{EventName: "out", ValueName: "x"}}},
			wantErr: "needs EventName"},
		{name: "negative threshold",
			cfg: core.Configuration{Observables: []core.Observable{
				{EventName: "out", ValueName: "x", ModelVar: "x", Threshold: -1}}},
			wantErr: "negative threshold"},
		{name: "negative tolerance",
			cfg: core.Configuration{Observables: []core.Observable{
				{EventName: "out", ValueName: "x", ModelVar: "x", Tolerance: -2}}},
			wantErr: "negative threshold"},
		{name: "negative MaxSilence",
			cfg: core.Configuration{Observables: []core.Observable{
				{EventName: "out", ValueName: "x", ModelVar: "x", MaxSilence: -sim.Second}}},
			wantErr: "negative MaxSilence"},
		{name: "duplicate derived ids",
			cfg:     core.Configuration{Observables: []core.Observable{valid, valid}},
			wantErr: "duplicate observable"},
		{name: "explicit Name disambiguates duplicates",
			cfg: core.Configuration{Observables: []core.Observable{
				valid,
				{Name: "x2", EventName: "out", ValueName: "x", ModelVar: "x"}}}},
		{name: "duplicate explicit Names rejected",
			cfg: core.Configuration{Observables: []core.Observable{
				{Name: "n", EventName: "out", ValueName: "x", ModelVar: "x"},
				{Name: "n", EventName: "out2", ValueName: "y", ModelVar: "y"}}},
			wantErr: "duplicate observable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
