// Package diagnose is the fleet-scale diagnosis plane: it closes the
// paper's observation pipeline (Sect. 4.1/4.4) end-to-end over the
// production fleet stack. Devices carry a spectral flight recorder (the
// TV's is tvsim.Recorder): per-heartbeat-window block-coverage bitsets over
// the shared synthetic program layout, plus the hwmon event ring. When the recovery
// control plane escalates a device past tolerate — the moment a device has
// demonstrably not healed — the diagnosis Engine pulls coverage snapshots
// from the escalated device *and* a sampled cohort of healthy peers over
// the wire (TypeSnapshotReq/TypeSnapshot frames), labels them fail/pass,
// journals each labeled snapshot write-ahead, and folds the windows into a
// sharded fleet-level spectrum.Spectra. The output is a spectrum-based
// fault-localization ranking (Ochiai by default) naming the code block
// whose execution best explains the failing devices, plus an FMEA-weighted
// component verdict — the paper's "which block contains the fault" result,
// computed across a live fleet instead of a bench scenario.
//
// Because the labeled evidence is journaled before folding and the fold is
// a pure counter sum, Replay reconstructs the exact ranking offline from
// the journal alone: `traderd -replay` prints byte-identical diagnosis
// output for any journal a live run produced.
package diagnose

import (
	"errors"
	"time"

	"trader/internal/control"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/wire"
)

// Defaults for the fleet engine.
const (
	DefaultCohort   = 8
	DefaultRequery  = 2 * sim.Second
	DefaultTrackTop = 10
)

// ErrClosed is returned by Apply when the engine is closed mid-replay.
var ErrClosed = errors.New("diagnose: engine closed")

// Requester pulls a coverage snapshot from one device. fleet.Server
// implements it; a nil requester (tests, offline) makes the engine fold
// only evidence that is fed to it directly.
type Requester interface {
	RequestSnapshot(id string) error
}

// Options configures an Engine.
type Options struct {
	// Requester delivers snapshot pulls to devices. Optional.
	Requester Requester
	// Journal, when non-nil, records every accepted labeled snapshot
	// write-ahead of folding it (the same journal the ingestion server and
	// recovery controller write). Optional, but required for -replay to
	// reconstruct rankings.
	Journal fleet.FrameJournal
	// Coeff is the similarity coefficient (default spectrum.Ochiai).
	Coeff spectrum.Coefficient
	// Blocks is the fleet's instrumented block count (default
	// spectrum.DefaultBlocks). Snapshots with a different block count are
	// rejected as malformed — spectra only compare within one layout.
	Blocks int
	// Stripes is the Spectra stripe count (default GOMAXPROCS).
	Stripes int
	// Cohort is how many healthy peers are sampled per escalation episode
	// (default DefaultCohort). More peers exonerate more shared code.
	Cohort int
	// Requery is the minimum virtual-time gap between two episodes for the
	// same device (default DefaultRequery; negative disables the gap). A
	// persistently failing device reports on every comparison sweep —
	// without the gap each report past tolerate would re-pull the whole
	// cohort for near-identical evidence. It doubles as the pull expiry: a
	// pull unanswered for this long (a device that disconnected mid-pull,
	// an answer shed on overload) is written off, so the device becomes
	// diagnosable and cohort-eligible again instead of pending forever.
	Requery sim.Time
	// Logf, when non-nil, receives episode and lifecycle log lines.
	Logf func(format string, args ...any)
	// Continuous enables the always-on diagnosis mode: devices piggyback
	// sparse spectrum deltas on their heartbeat cadence
	// (TypeSpectrumDelta; wire HandleSpectrumDelta to
	// fleet.Server.OnSpectrumDelta) and the engine folds each delta the
	// moment it arrives, labeled by the live suspect set — a device the
	// control plane has escalated folds as "fail", everyone else as
	// "pass". Escalation pulls still run; the fold high-water marks keep
	// deltas and pulled snapshots from ever double-counting a window.
	Continuous bool
	// TrackTop is the incremental top-K depth the accumulators maintain
	// under continuous folds (default DefaultTrackTop when Continuous,
	// else off). Result calls with n ≤ TrackTop answer from the tracked
	// candidates in O(K log K) instead of re-scanning every block.
	TrackTop int
	// Tracer, when non-nil, records diagnose spans (§6.2): episodic
	// snapshot folds — escalation traffic — are traced forced, while
	// continuous heartbeat-delta folds go through the sampling gate, so a
	// high-rate delta stream cannot lap the forced ring the control plane's
	// spans live in.
	Tracer *trace.Tracer
}

// inboxSize is the mailbox length: actions and evidence beyond it are shed
// and counted in Rollup().Dropped.
const inboxSize = 1024

// tally is the engine's accounting. Owned by the engine goroutine.
type tally struct {
	Escalations     uint64 // escalation actions observed
	Episodes        uint64 // diagnosis episodes opened (pull rounds)
	Coalesced       uint64 // escalations absorbed by an in-flight episode
	Requests        uint64 // snapshot pulls pushed
	RequestFailures uint64 // pulls that could not be delivered
	Snapshots       uint64 // labeled snapshots folded
	Deltas          uint64 // heartbeat spectrum deltas accepted (continuous mode)
	FailWindows     uint64
	PassWindows     uint64
	SkippedWindows  uint64 // windows not folded: no coverage, still open, or already folded
	Unsolicited     uint64 // snapshots from devices never asked
	Malformed       uint64 // snapshots with a foreign block count (or none)
	Expired         uint64 // pulls written off unanswered after the expiry
	JournalErrors   uint64
}

// pull is one outstanding snapshot request: the label its answer will fold
// under and the episode's virtual time (for expiry).
type pull struct {
	label string
	at    sim.Time
}

// Engine drives fleet diagnosis: a mailbox goroutine running the escalation
// and evidence handlers, a sharded Spectra owning the evidence, and the
// pending-pull bookkeeping. All exported methods are safe for concurrent use.
type Engine struct {
	pool   *fleet.Pool
	opts   Options
	coeff  spectrum.Coefficient
	layout *Layout

	spectra *spectrum.Spectra
	fold    *folder
	pending map[string]pull     // device → outstanding pull awaiting its snapshot
	lastEp  map[string]sim.Time // device → virtual time of its last episode
	// suspects is the live fail-label set of continuous mode: devices the
	// control plane has escalated. A suspect's heartbeat deltas fold as
	// "fail" into its own verdict partition; everyone else's fold as
	// "pass". The label is journaled on each delta record, so Replay never
	// needs this set.
	suspects map[string]bool
	tally    tally

	// box is the engine goroutine; everything above is touched only by
	// closures run through it (or, unstarted, by the caller: Offline).
	box fleet.Mailbox

	recovered int // evidence records the replay pass folded (see Apply)
}

// Attach builds the diagnosis engine over the pool and starts its
// goroutine. Wire HandleAction to control.Options.OnEscalate and
// HandleSnapshot to fleet.Server.OnSnapshot; Close stops it.
func Attach(pool *fleet.Pool, opts Options) *Engine {
	e := newEngine(pool, opts)
	e.box.Start(inboxSize)
	return e
}

// newEngine builds the engine without starting its goroutine — the seam
// the offline replay folds through synchronously (see Offline).
func newEngine(pool *fleet.Pool, opts Options) *Engine {
	if opts.Coeff.F == nil {
		opts.Coeff = spectrum.Ochiai
	}
	if opts.Blocks <= 0 {
		opts.Blocks = spectrum.DefaultBlocks
	}
	if opts.Cohort <= 0 {
		opts.Cohort = DefaultCohort
	}
	if opts.Requery == 0 {
		opts.Requery = DefaultRequery
	}
	if opts.Continuous && opts.TrackTop <= 0 {
		opts.TrackTop = DefaultTrackTop
	}
	e := &Engine{
		pool:     pool,
		opts:     opts,
		coeff:    opts.Coeff,
		layout:   NewLayout(opts.Blocks),
		spectra:  spectrum.NewSpectra(opts.Blocks, opts.Stripes),
		pending:  make(map[string]pull),
		lastEp:   make(map[string]sim.Time),
		suspects: make(map[string]bool),
	}
	e.fold = newFolder(e.spectra, opts.TrackTop)
	return e
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// HandleAction feeds one escalation action into the engine; wire it to
// control.Options.OnEscalate. Safe from any goroutine, never blocks.
func (e *Engine) HandleAction(a control.Action) {
	e.box.Try(func() { e.handleAction(a) })
}

// HandleSnapshot feeds one device snapshot into the engine; wire it to
// fleet.Server.OnSnapshot. Safe from any goroutine, never blocks.
func (e *Engine) HandleSnapshot(id string, m wire.Message) {
	e.box.Try(func() { e.handleSnapshot(id, m) })
}

// HandleSpectrumDelta feeds one heartbeat spectrum delta into the engine;
// wire it to fleet.Server.OnSpectrumDelta. Safe from any goroutine, never
// blocks; outside continuous mode deltas are dropped unfolded.
func (e *Engine) HandleSpectrumDelta(id string, m wire.Message) {
	if e.opts.Continuous {
		e.box.Try(func() { e.handleDelta(id, m) })
	}
}

// Sync blocks until every item enqueued before it has been processed.
func (e *Engine) Sync() { e.box.Do(func() {}) }

// Close stops the engine goroutine. Evidence arriving after Close is
// dropped silently; Result, Rollup and Checkpoint keep working on the
// frozen state.
func (e *Engine) Close() { e.box.Close() }

// Result computes the current fleet diagnosis with the top n suspects: a
// barrier, evidence enqueued before it is reflected.
func (e *Engine) Result(n int) (res *Result) {
	e.box.Do(func() { res = buildFolderResult(e.fold, e.layout, e.coeff, n) })
	return res
}

// handleAction opens a diagnosis episode for an escalated device: pull a
// snapshot from the suspect and from a sampled healthy cohort. Escalations
// for a device whose pull is still outstanding coalesce into it; pulls
// unanswered past the expiry are written off first, so a device that
// vanished mid-pull (disconnect, shed answer) cannot starve its own
// diagnosis — or block cohort membership — forever.
func (e *Engine) handleAction(a control.Action) {
	e.tally.Escalations++
	e.suspects[a.Device] = true
	// A negative Requery disables the episode gap, and with it the grace a
	// pull gets before being written off: expiry 0 means any pull from an
	// earlier instant is expired now. Only the unset (zero) value falls
	// back to the default — previously a negative value did too, which
	// left a device that vanished mid-pull pinned as in-flight for the
	// full default window despite the caller asking for no gap at all.
	expiry := e.opts.Requery
	if expiry == 0 {
		expiry = DefaultRequery
	} else if expiry < 0 {
		expiry = 0
	}
	for id, p := range e.pending {
		if a.At-p.at > expiry {
			delete(e.pending, id)
			e.tally.Expired++
			e.logf("diagnose: pull of %s expired unanswered", id)
		}
	}
	if _, busy := e.pending[a.Device]; busy {
		e.tally.Coalesced++
		return
	}
	if last, ok := e.lastEp[a.Device]; ok && e.opts.Requery > 0 && a.At-last < e.opts.Requery {
		e.tally.Coalesced++
		return
	}
	e.lastEp[a.Device] = a.At
	e.tally.Episodes++
	cohort := e.sampleCohort(a.Device)
	e.pending[a.Device] = pull{label: LabelFail, at: a.At}
	for _, id := range cohort {
		e.pending[id] = pull{label: LabelPass, at: a.At}
	}
	e.logf("diagnose: %s escalated (%s): pulling snapshots from it + %d healthy peers",
		a.Device, a.Rung, len(cohort))
	if e.opts.Requester == nil {
		return
	}
	for _, id := range append([]string{a.Device}, cohort...) {
		if err := e.opts.Requester.RequestSnapshot(id); err != nil {
			e.tally.RequestFailures++
			delete(e.pending, id)
			e.logf("diagnose: pull %s: %v", id, err)
		} else {
			e.tally.Requests++
		}
	}
}

// sampleCohort picks up to Cohort healthy comparison peers, deterministically
// spread by the suspect's identity: the sorted healthy-device list is
// entered at a suspect-derived offset and taken round-robin, skipping the
// suspect and devices already serving another episode.
func (e *Engine) sampleCohort(suspect string) []string {
	healthy := e.pool.HealthyDevices()
	candidates := healthy[:0:0]
	for _, id := range healthy {
		if id == suspect {
			continue
		}
		if _, busy := e.pending[id]; busy {
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		return nil
	}
	n := e.opts.Cohort
	if n > len(candidates) {
		n = len(candidates)
	}
	// FNV-1a over the suspect ID spreads repeated episodes for different
	// suspects across the fleet instead of always sampling the same peers.
	h := uint32(2166136261)
	for i := 0; i < len(suspect); i++ {
		h ^= uint32(suspect[i])
		h *= 16777619
	}
	start := int(h % uint32(len(candidates)))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, candidates[(start+i)%len(candidates)])
	}
	return out
}

// handleSnapshot labels, journals and folds one device's evidence.
func (e *Engine) handleSnapshot(id string, m wire.Message) {
	p, ok := e.pending[id]
	if !ok {
		e.tally.Unsolicited++
		return
	}
	delete(e.pending, id)
	snap := m.Snapshot
	if snap == nil || snap.Blocks != e.opts.Blocks {
		e.tally.Malformed++
		blocks := -1
		if snap != nil {
			blocks = snap.Blocks
		}
		e.logf("diagnose: %s: malformed snapshot (blocks %d, want %d)", id, blocks, e.opts.Blocks)
		return
	}
	evidence := EvidenceFrame(id, p.label, m)
	if e.opts.Journal != nil {
		if err := e.opts.Journal.Append(evidence); err != nil {
			// Diagnosis beats the record: fold anyway and surface the
			// journal failure loudly (the replayed ranking will lag this
			// snapshot; mirror of the controller's action-journal stance).
			e.tally.JournalErrors++
			e.logf("diagnose: journal evidence from %s: %v", id, err)
		}
	}
	start := time.Now()
	folded := e.foldEvidence(evidence)
	if tr := e.opts.Tracer; tr != nil {
		tr.Span(tr.Force(), trace.KindDiagnose, -1, id, start, time.Since(start), true)
	}
	e.logf("diagnose: folded %d %s windows from %s (%d pulls outstanding)",
		folded, p.label, id, len(e.pending))
}

// handleDelta labels, journals and folds one heartbeat spectrum delta
// (continuous mode): the evidence analogue of handleSnapshot, but labeled
// by the live suspect set instead of an episode's pull bookkeeping — no
// pull is outstanding, the device volunteered the window on its heartbeat
// cadence.
func (e *Engine) handleDelta(id string, m wire.Message) {
	d := m.Delta
	if d == nil || d.Blocks != e.opts.Blocks {
		e.tally.Malformed++
		blocks := -1
		if d != nil {
			blocks = d.Blocks
		}
		e.logf("diagnose: %s: malformed delta (blocks %d, want %d)", id, blocks, e.opts.Blocks)
		return
	}
	label := LabelPass
	if e.suspects[id] {
		label = LabelFail
	}
	evidence := DeltaFrame(id, label, m)
	if e.opts.Journal != nil {
		if err := e.opts.Journal.Append(evidence); err != nil {
			e.tally.JournalErrors++
			e.logf("diagnose: journal delta from %s: %v", id, err)
		}
	}
	// Delta folds are continuous, heartbeat-cadence traffic: they go
	// through the sampling gate, not Force — a fleet's delta stream would
	// otherwise evict the control plane's forced spans within seconds.
	ctx := trace.Context{}
	var start time.Time
	if tr := e.opts.Tracer; tr != nil {
		if ctx = tr.Sample(); ctx.Live() {
			start = time.Now()
		}
	}
	e.foldEvidence(evidence)
	if ctx.Live() {
		e.opts.Tracer.Span(ctx, trace.KindDiagnose, -1, id, start, time.Since(start), false)
	}
}

// foldEvidence folds one already-labeled evidence frame (Target carries the
// label, SUO the device; the payload is a pulled snapshot or a heartbeat
// delta) into the accumulator and updates the tallies. Shared by the live
// path and the replay pass (apply).
func (e *Engine) foldEvidence(m wire.Message) int {
	failed := m.Target == LabelFail
	if failed {
		// A fail label means the device was a suspect when the evidence
		// was produced. Re-marking here keeps a Recover'd engine labeling
		// the device's future deltas the way the pre-crash engine did.
		e.suspects[m.SUO] = true
	}
	if m.Type == wire.TypeSpectrumDelta {
		e.tally.Deltas++
		if !e.fold.foldDelta(m.SUO, m.Delta, failed) {
			e.tally.SkippedWindows++
			return 0
		}
		if failed {
			e.tally.FailWindows++
		} else {
			e.tally.PassWindows++
		}
		return 1
	}
	folded := e.fold.fold(m.SUO, m.Snapshot, failed)
	e.tally.Snapshots++
	e.tally.SkippedWindows += uint64(len(m.Snapshot.Windows) - folded)
	if failed {
		e.tally.FailWindows += uint64(folded)
	} else {
		e.tally.PassWindows += uint64(folded)
	}
	return folded
}

// replayBlocks classifies a journal record for the diagnosis plane: whether
// the plane owns it at all — a PlaneDiagnose checkpoint or a labeled
// evidence frame (a TypeSnapshot or TypeSpectrumDelta whose Target is "fail"
// or "pass"; only the engine journals those) — and the block count of the
// layout it was produced under.
func replayBlocks(m wire.Message) (blocks int, mine bool) {
	switch {
	case m.Type == wire.TypeCheckpoint:
		if cp := m.Checkpoint; cp != nil && cp.Plane == wire.PlaneDiagnose {
			return cp.Blocks, true
		}
	case m.Target != LabelFail && m.Target != LabelPass:
		// an unlabeled frame is not engine evidence
	case m.Type == wire.TypeSnapshot && m.Snapshot != nil:
		return m.Snapshot.Blocks, true
	case m.Type == wire.TypeSpectrumDelta && m.Delta != nil:
		return m.Delta.Blocks, true
	}
	return 0, false
}

// Apply is the engine's side of a journal replay (journal.Plane): a daemon
// resuming a journal folds what the pre-crash engine had folded, so its
// live ranking continues where the old one stopped — and a later offline
// Replay over the grown journal still matches the live engine byte for
// byte. Replayed evidence is not re-journaled.
//
// A PlaneDiagnose checkpoint record restores the engine absolutely —
// spectrum, fold marks and tally — superseding evidence replayed before it
// (the pre-checkpoint history of older streams); the records after it are
// exactly the delta the checkpoint does not cover. Both go through the
// engine's own mailbox, in journal order: the checkpoint waits for its
// verdict, evidence is only posted, so the replay driver reads ahead of the
// fold. A checkpoint with a foreign block count is an error, mirroring the
// live engine's layout guard; foreign evidence cannot fold into this engine
// and is passed over.
func (e *Engine) Apply(m wire.Message) (err error) {
	blocks, mine := replayBlocks(m)
	switch {
	case !mine:
	case m.Type == wire.TypeCheckpoint:
		e.box.Do(func() { err = e.apply(m) })
	case blocks == e.opts.Blocks:
		if !e.box.Post(func() { e.apply(m) }) {
			return ErrClosed
		}
		e.recovered++
	}
	return err
}

// apply is Apply's engine-side half, for a record replayBlocks has vetted.
// Engine-goroutine only.
func (e *Engine) apply(m wire.Message) error {
	if m.Type == wire.TypeCheckpoint {
		return e.restoreCheckpoint(m.Checkpoint)
	}
	e.foldEvidence(m)
	return nil
}

// Settle ends a replay: a barrier behind the last record Apply enqueued.
func (e *Engine) Settle() error {
	e.Sync()
	return nil
}

// Recovered reports how many evidence records the replay pass folded.
func (e *Engine) Recovered() int { return e.recovered }
