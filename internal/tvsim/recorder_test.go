package tvsim

import (
	"testing"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/spectrum"
)

const testBlocks = 512

// testRecorder builds a small-program recorder for device i.
func testRecorder(i int) *Recorder {
	return NewRecorder(RecorderOptions{Blocks: testBlocks, Windows: 4, Seed: int64(i + 1)})
}

// featureOfBlock names the layout feature a block belongs to ("" for the
// common core): the layout is the program structure, independent of seed.
func featureOfBlock(block int) string {
	for _, f := range spectrum.GenerateTVProgram(0, testBlocks).Features {
		for _, b := range f.Blocks {
			if b == block {
				return f.Name
			}
		}
	}
	return ""
}

func TestRecorderWindowsAndSnapshot(t *testing.T) {
	r := testRecorder(0)
	r.Press("teletext")
	r.Rotate(10 * sim.Millisecond)
	r.Press("volume")
	snap := r.Snapshot()
	if snap.Blocks != testBlocks {
		t.Fatalf("snapshot blocks = %d", snap.Blocks)
	}
	// One closed window plus the open one, in sequence order.
	if len(snap.Windows) != 2 || snap.Windows[0].Seq != 0 || snap.Windows[1].Seq != 1 {
		t.Fatalf("windows = %+v", snap.Windows)
	}
	if snap.Windows[0].At != 10*sim.Millisecond || snap.Windows[1].At != 0 {
		t.Fatalf("window times = %+v", snap.Windows)
	}
	// The ring retains only the last Windows closed windows.
	for i := 0; i < 10; i++ {
		r.Press("menu")
		r.Rotate(sim.Time(i+2) * 10 * sim.Millisecond)
	}
	snap = r.Snapshot()
	if len(snap.Windows) != 5 { // 4 retained + open
		t.Fatalf("retained %d windows, want 5", len(snap.Windows))
	}
	if snap.Windows[0].Seq != 7 {
		t.Fatalf("oldest retained window seq = %d, want 7", snap.Windows[0].Seq)
	}
}

// The injected fault block executes on every invocation of the faulty
// feature and on no other feature; the layout attributes it correctly.
func TestRecorderFaultInjection(t *testing.T) {
	r := testRecorder(1)
	fault := r.InjectFault("teletext")
	if got := featureOfBlock(fault); got != "teletext" {
		t.Fatalf("fault block %d attributed to %q", fault, got)
	}
	r.Press("volume")
	words := r.Snapshot().Windows[0].Words
	if words[fault/64]&(1<<(uint(fault)%64)) != 0 {
		t.Fatal("fault block executed by a foreign feature")
	}
	r.Press("teletext")
	words = r.Snapshot().Windows[0].Words
	if words[fault/64]&(1<<(uint(fault)%64)) == 0 {
		t.Fatal("fault block not executed by the faulty feature")
	}
	// Healthy recorders never set it deterministically: same seed, no
	// injection, same presses.
	h := testRecorder(1)
	h.Press("volume")
	h.Press("teletext")
	hw := h.Snapshot().Windows[0].Words
	fw := r.Snapshot().Windows[0].Words
	for w := range hw {
		want := fw[w]
		if w == fault/64 {
			want &^= 1 << (uint(fault) % 64)
		}
		if hw[w] != want {
			t.Fatalf("healthy twin diverges at word %d beyond the fault bit", w)
		}
	}
}

// Observe maps key events and periodic component events onto features, the
// latter at most once per window.
func TestRecorderObserve(t *testing.T) {
	r := testRecorder(2)
	key := event.Event{Kind: event.Input, Name: "key", Source: "remote"}.With("key", float64(KeyText))
	r.Observe(key)
	frame := event.Event{Kind: event.Output, Name: "frame", Source: "video"}
	r.Observe(frame)
	r.Observe(frame)
	snap := r.Snapshot()
	if snap.Events != 3 {
		t.Fatalf("flight recorder retained %d events, want 3", snap.Events)
	}
	open := snap.Windows[len(snap.Windows)-1]
	covered := 0
	for _, w := range open.Words {
		for ; w != 0; w &= w - 1 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("observe produced no coverage")
	}
	// After rotation the same periodic component presses again.
	r.Rotate(sim.Second)
	r.Observe(frame)
	open = r.Snapshot().Windows[len(r.Snapshot().Windows)-1]
	any := false
	for _, w := range open.Words {
		any = any || w != 0
	}
	if !any {
		t.Fatal("periodic component did not press after rotation")
	}
}
