package core

import "testing"

// TestMonitorResumeInProcess: monitoring stops and resumes through the API,
// and the model keeps its state across the stop/start.
func TestMonitorResumeInProcess(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0, 0)}})
	m.HandleInput(setEvent(5))
	m.Stop()
	m.HandleOutput(outEvent(9)) // ignored while stopped
	if err := m.Start(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	m.HandleOutput(outEvent(9)) // model still expects 5 → error
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1 after resume", len(*reports))
	}
	if (*reports)[0].Expected != 5 {
		t.Fatal("model state lost across stop/start")
	}
}
