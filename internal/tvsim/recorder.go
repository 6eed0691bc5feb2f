package tvsim

import (
	"sync"

	"trader/internal/event"
	"trader/internal/hwmon"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/wire"
)

// Defaults for the device-side spectral recorder.
const (
	DefaultWindows = 8
	DefaultEvents  = 256
)

// RecorderOptions sizes a device-side Recorder.
type RecorderOptions struct {
	// Blocks is the instrumented block count (default
	// spectrum.DefaultBlocks). The program *layout* — which block belongs
	// to which feature — is a pure function of this count, so every device
	// in a fleet shares it and fleet-level folding compares like with like.
	Blocks int
	// Windows is how many closed coverage windows the spectral ring
	// retains (default DefaultWindows).
	Windows int
	// Events is the raw-event flight recorder capacity (default
	// DefaultEvents).
	Events int
	// Seed drives the per-device execution sampling (warm/cold paths,
	// background noise). It deliberately does not change the layout.
	Seed int64
}

func (o *RecorderOptions) fill() {
	if o.Blocks <= 0 {
		o.Blocks = spectrum.DefaultBlocks
	}
	if o.Windows <= 0 {
		o.Windows = DefaultWindows
	}
	if o.Events <= 0 {
		o.Events = DefaultEvents
	}
}

// Recorder is the device-side half of the diagnosis plane (the fleet half
// is internal/diagnose's engine): a spectral flight recorder. It maps the
// TV's observable activity (remote-key presses, periodic component work)
// onto the synthetic instrumented program of internal/spectrum,
// accumulating one block-coverage bitset per heartbeat window, and retains the last few closed windows in a ring — the
// coverage analogue of the hwmon event flight recorder it also carries.
// Snapshot captures the retained windows as a wire.Snapshot for the
// monitor's diagnosis pull.
//
// A Recorder is safe for concurrent use: device buses publish from
// simulation goroutines while the connection's reader answers snapshot
// requests.
type Recorder struct {
	mu     sync.Mutex
	prog   *spectrum.Program
	events *hwmon.FlightRecorder

	fault   int    // block the device's defect executes (-1: healthy)
	faultIn string // feature the defect lives in

	cur     *spectrum.BitSet
	curSeq  uint64
	pressed map[string]bool // features already counted this window (periodic work)
	ring    []wire.SpectrumWindow
	retain  int
}

// NewRecorder builds a recorder over the shared program layout.
func NewRecorder(o RecorderOptions) *Recorder {
	o.fill()
	return &Recorder{
		prog:    spectrum.GenerateTVProgram(o.Seed, o.Blocks),
		events:  hwmon.NewFlightRecorder(o.Events),
		fault:   -1,
		cur:     spectrum.NewBitSet(o.Blocks),
		pressed: make(map[string]bool),
		retain:  o.Windows,
	}
}

// InjectFault marks this device's build of the named feature as defective:
// every invocation of the feature from now on also executes the fault block
// (spectrum.Program.FaultInFeature — a rarely-taken path healthy devices
// sample only by chance). It returns the block index, the ground truth a
// fault-injection experiment checks the fleet ranking against.
func (r *Recorder) InjectFault(feature string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fault = r.prog.FaultInFeature(feature)
	r.faultIn = feature
	return r.fault
}

// Press records one invocation of the named feature into the open window:
// the feature's core path, sampled warm/cold paths, background noise — and
// the fault block, if this device's build of the feature is defective.
func (r *Recorder) Press(feature string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.press(feature)
}

func (r *Recorder) press(feature string) {
	r.cur.Or(r.prog.Press(feature))
	if r.fault >= 0 && feature == r.faultIn {
		r.cur.Set(r.fault)
	}
}

// Observe feeds one device event through the recorder: everything lands in
// the event flight recorder; key presses invoke the key's feature; a
// component's periodic output (video frames, teletext pages, ...) invokes
// its feature once per window — coverage is a set, so steady periodic work
// adds exactly its code paths.
func (r *Recorder) Observe(e event.Event) {
	r.events.Record(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Name == "key" {
		if v, ok := e.Get("key"); ok {
			if f, ok := FeatureOfKey(Key(int(v))); ok {
				r.press(f)
			}
		}
		return
	}
	if f, ok := FeatureOfComponent(e.Source); ok && !r.pressed[f] {
		r.pressed[f] = true
		r.press(f)
	}
}

// Rotate closes the open window at the device's virtual time at — the
// heartbeat boundary — pushing it into the ring and starting a fresh one.
func (r *Recorder) Rotate(at sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rotate(at)
}

func (r *Recorder) rotate(at sim.Time) {
	r.ring = append(r.ring, wire.SpectrumWindow{Seq: r.curSeq, At: at, Words: r.cur.Words()})
	if len(r.ring) > r.retain {
		r.ring = r.ring[len(r.ring)-r.retain:]
	}
	r.curSeq++
	r.cur.Clear()
	r.pressed = make(map[string]bool)
}

// RotateDelta closes the open window like Rotate and returns it as a sparse
// spectrum delta for piggybacking on the heartbeat (continuous diagnosis,
// TypeSpectrumDelta): only the nonzero coverage words, tagged with the
// window's sequence number. The Seq shares the ring's numbering, so the
// engine's per-device fold high-water mark deduplicates a delta against a
// later pulled snapshot re-capturing the same window — each window folds at
// most once however it travels. The frame is bounded: at most
// ceil(blocks/64) pairs of ~11 bytes (≈10 KB at the paper's 60 000-block
// scale), and in practice a window covers a small fraction of the program.
// A quiet window yields a delta with no pairs.
func (r *Recorder) RotateDelta(at sim.Time) *wire.SpectrumDelta {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &wire.SpectrumDelta{Seq: r.curSeq, Blocks: r.cur.Len()}
	d.Index, d.Words = r.cur.Sparse()
	r.rotate(at)
	return d
}

// Snapshot captures the retained closed windows plus the still-open one
// (At = 0) — the device's answer to a TypeSnapshotReq pull.
func (r *Recorder) Snapshot() *wire.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &wire.Snapshot{
		Blocks:  r.cur.Len(),
		Events:  uint64(r.events.Len()),
		Dropped: r.events.Dropped(),
	}
	for _, w := range r.ring {
		words := make([]uint64, len(w.Words))
		copy(words, w.Words)
		s.Windows = append(s.Windows, wire.SpectrumWindow{Seq: w.Seq, At: w.At, Words: words})
	}
	s.Windows = append(s.Windows, wire.SpectrumWindow{Seq: r.curSeq, Words: r.cur.Words()})
	return s
}

// keyFeature maps remote keys onto the features of the synthetic program
// layout (spectrum.DefaultTVFeatures).
var keyFeature = map[Key]string{
	KeyPower:       "power",
	KeyVolUp:       "volume",
	KeyVolDown:     "volume",
	KeyMute:        "mute",
	KeyChUp:        "zapping",
	KeyChDown:      "zapping",
	KeyText:        "teletext",
	KeyMenu:        "menu",
	KeyDual:        "dual-screen",
	KeySleep:       "sleep",
	KeyLock:        "child-lock",
	KeySwivelLeft:  "swivel",
	KeySwivelRight: "swivel",
	KeyOK:          "menu",
	KeyBack:        "menu",
	KeySource:      "settings",
}

// componentFeature maps event sources (and fault-injection targets) onto
// program features: the code a component's periodic work executes.
var componentFeature = map[string]string{
	"audio":    "volume",
	"video":    "zapping",
	"osd":      "menu",
	"swivel":   "swivel",
	"tv":       "power",
	"txt-disp": "teletext",
	"teletext": "teletext",
	"tuner":    "zapping",
}

// FeatureOfKey maps a remote key to the program feature it exercises.
func FeatureOfKey(k Key) (string, bool) {
	f, ok := keyFeature[k]
	return f, ok
}

// FeatureOfComponent maps a component/event source (or a fault-injection
// target) to the program feature its code belongs to.
func FeatureOfComponent(source string) (string, bool) {
	f, ok := componentFeature[source]
	return f, ok
}
