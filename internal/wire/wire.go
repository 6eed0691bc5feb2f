// Package wire implements the message protocol spoken across the process
// boundary of the awareness framework (paper Fig. 2): the System Under
// Observation and the awareness monitor are separate processes connected by
// Unix domain sockets or TCP. Messages are length-prefixed frames; the
// payload encoding is pluggable (JSON by default, a compact binary codec
// negotiated in the Hello exchange — see Codec), and the framing is
// transport-agnostic so tests can run over net.Pipe and the daemons over
// real sockets.
//
// The full protocol — frame layout, message types, codec negotiation,
// heartbeats — is specified in ARCHITECTURE.md at the repository root.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"trader/internal/event"
	"trader/internal/sim"
)

// MsgType discriminates frames.
type MsgType string

// Message types, one per interface arrow in Fig. 2.
const (
	TypeHello     MsgType = "hello"     // SUO → monitor: identification
	TypeInput     MsgType = "input"     // SUO → monitor: IInputEvent
	TypeOutput    MsgType = "output"    // SUO → monitor: IOutputEvent
	TypeState     MsgType = "state"     // SUO → monitor: internal state/mode info
	TypeControl   MsgType = "control"   // monitor → SUO: IControl
	TypeError     MsgType = "error"     // monitor → SUO/operator: IErrorNotify
	TypeHeartbeat MsgType = "heartbeat" // liveness probe, both directions
	TypeSpecInfo  MsgType = "spec_info" // monitor internal: ISpecInfo snapshot
	TypeAck       MsgType = "ack"       // SUO → monitor: control command honored
	// TypeSnapshotReq (monitor → SUO) asks the device to capture its
	// flight-recorder coverage spectrum; TypeSnapshot (SUO → monitor)
	// answers with the captured windows. The fleet diagnosis plane
	// (internal/diagnose) pulls these as localization evidence.
	TypeSnapshotReq MsgType = "snapshot_req"
	TypeSnapshot    MsgType = "snapshot"
	// TypeCheckpoint records a supervisor-captured state snapshot in the
	// frame journal: monitor, shard-counter, controller or diagnosis state
	// at a consistent capture instant. Checkpoint records never cross a
	// live connection; replay resumes from the newest complete checkpoint
	// and replays only the delta after it.
	TypeCheckpoint MsgType = "checkpoint"
	// TypeCredit (monitor → SUO) replenishes a connection's frame-credit
	// window mid-stream: Credits carries a delta grant, restoring credits
	// the server has consumed. Grants also piggyback on Hello replies (the
	// initial window) and heartbeat echoes; a standalone TypeCredit frame
	// keeps a fast-but-compliant sender from stalling between heartbeats
	// while its shard queue is shallow. See ARCHITECTURE.md §2.8.
	TypeCredit MsgType = "credit"
	// TypeShed records load-shedding in the frame journal: how many of a
	// device's frames the server dropped under queue pressure since the
	// previous marker (the Shed payload). Shed frames themselves are never
	// journaled — they were refused — so replaying the journal rebuilds
	// exactly the admitted stream; the markers restore the shed counters so
	// fleet rollups still balance. Shed markers never cross a live
	// connection.
	TypeShed MsgType = "shed"
	// TypeRollup (edge ⇄ aggregator) streams the federation tier's
	// rollup-delta protocol: an edge periodically flushes the signed delta
	// of its cumulative fleet counters since the last acknowledged flush
	// (the Rollup payload), and the aggregator replies with a TypeAck whose
	// At field echoes Rollup.Seq. The aggregator also sends one TypeRollup
	// downstream right after the Hello exchange — the resume baseline: the
	// cumulative totals it has already credited to that edge, so a
	// reconnecting edge resumes the delta stream without double counting.
	// See ARCHITECTURE.md §7.2.
	TypeRollup MsgType = "rollup"
	// TypeHandoff carries a live device migration (edge ⇄ aggregator) and
	// doubles as the journal record that makes ownership changes
	// replayable: the Handoff payload names source and destination edge,
	// SUO names the device, and the frame-level Checkpoint payload carries
	// the device's monitor snapshot captured behind the migration barrier.
	// Journaled write-ahead on both edges (Handoff.Out distinguishes the
	// departure record from the arrival record) and on the aggregator (the
	// range-map repoint). See ARCHITECTURE.md §7.3.
	TypeHandoff MsgType = "handoff"
	// TypeSpectrumDelta (SUO → monitor) piggybacks one closed coverage
	// window of the device's spectral flight recorder on the heartbeat
	// cadence, as a sparse delta: only the packed words the window actually
	// touched (the Delta payload). It is the continuous-diagnosis
	// counterpart of the pulled TypeSnapshot — bounded bytes per frame,
	// every heartbeat, no request needed. Deltas share the recorder's
	// window sequence space with snapshots, so the diagnosis engine's fold
	// watermark dedups the two evidence paths. The server sheds deltas with
	// observations (tier 1), never with control traffic; accepted deltas
	// are journaled by the diagnosis engine, labeled, write-ahead of
	// folding — not by the server. See ARCHITECTURE.md §5.5.
	TypeSpectrumDelta MsgType = "spectrum_delta"
)

// Role is the connection role a client declares in its Hello. Empty means a
// device (SUO) connection — the only role that existed before the
// federation tier — so every pre-federation client remains valid.
const (
	// RoleEdge marks an edge-ingester uplink to an aggregator: the
	// connection speaks the rollup-delta and handoff protocol of
	// ARCHITECTURE.md §7 instead of the device observation protocol.
	RoleEdge = "edge"
)

// Durability is the ack class a connection negotiates in the Hello
// exchange: what a heartbeat echo from a journaling server promises about
// the frames sent before it.
type Durability string

// Durability classes. The client requests one in its Hello; the server
// grants a class in the reply (never a stronger promise than it keeps).
const (
	// DurFsync: the echo means every earlier frame is monitored AND
	// durable (group-commit fsync). The default, and the only class a
	// journal-less server meaningfully grants.
	DurFsync Durability = "fsync"
	// DurDispatch: the echo means every earlier frame is monitored and
	// accepted into the journal's write path, but not necessarily synced;
	// a crash may lose the unsynced tail. The long-tail class that keeps
	// heartbeats off the platter.
	DurDispatch Durability = "dispatch"
)

// DurabilityByName vets a requested durability class; unknown or empty
// requests fall back to DurFsync (the strongest promise is the safe
// default) with ok=false.
func DurabilityByName(name string) (d Durability, ok bool) {
	switch Durability(name) {
	case DurDispatch:
		return DurDispatch, true
	case DurFsync:
		return DurFsync, true
	default:
		return DurFsync, name == ""
	}
}

// ControlCommand is carried by TypeControl frames.
type ControlCommand string

// Control commands the monitor can send to an adapted SUO. The recovery
// control plane (internal/control) pushes the last three as escalation
// actions; a SUO that honors one answers with a TypeAck frame echoing the
// command, so the controller can tell actuation from silence.
const (
	CtrlStart   ControlCommand = "start"
	CtrlStop    ControlCommand = "stop"
	CtrlReset   ControlCommand = "reset"   // clear erroneous state; monitoring re-arms
	CtrlRecover ControlCommand = "recover" // ask the SUO to run a recovery action
	// CtrlRestart asks the SUO to restart as a recoverable unit: drop the
	// connection, re-handshake, resume streaming from its current time.
	CtrlRestart ControlCommand = "restart"
	// CtrlQuarantine takes the SUO out of service: the monitor stops
	// dispatching to it and its connection is closed; the SUO must stop
	// streaming.
	CtrlQuarantine ControlCommand = "quarantine"
	// CtrlMigrate (aggregator → edge, federation tier) asks the edge to
	// migrate the device named in SUO to the edge named in Target: drain
	// behind the shard barrier, capture, journal the departure, send a
	// TypeHandoff frame upstream. The destination edge acks the completed
	// restore with a TypeAck echoing this command. ARCHITECTURE.md §7.3.
	CtrlMigrate ControlCommand = "migrate"
	// CtrlAdopt (aggregator → edge, federation tier) asks a surviving edge
	// to absorb a dead peer: SUO names the dead edge, Target its
	// advertised journal directory. The survivor replays the journal,
	// re-journals every recovered device as a handoff arrival plus the
	// peer's pool counters as an adopted baseline, and acks with a TypeAck
	// echoing this command — at which point the aggregator repoints the
	// dead edge's ranges. ARCHITECTURE.md §7.4.
	CtrlAdopt ControlCommand = "adopt"
)

// Ack builds the SUO-side acknowledgement frame for a control command the
// SUO has honored. At carries the SUO's virtual time, vetted by the server
// like any other client-supplied timestamp.
func Ack(suo string, cmd ControlCommand, at sim.Time) Message {
	return Message{Type: TypeAck, SUO: suo, Control: cmd, At: at}
}

// ErrorReport describes a detected error (monitor → operator/SUO).
type ErrorReport struct {
	Detector    string   `json:"detector"`   // which detector fired
	Observable  string   `json:"observable"` // offending observable, if any
	Expected    float64  `json:"expected"`
	Actual      float64  `json:"actual"`
	Consecutive int      `json:"consecutive"` // deviations in a row
	At          sim.Time `json:"at"`
	Detail      string   `json:"detail,omitempty"`
}

func (r ErrorReport) String() string {
	return fmt.Sprintf("[%s] %s: %s expected=%g actual=%g (consecutive=%d) %s",
		r.At, r.Detector, r.Observable, r.Expected, r.Actual, r.Consecutive, r.Detail)
}

// SpectrumWindow is one heartbeat-delimited block-coverage window of a
// device's spectral flight recorder: which instrumented blocks executed
// between two heartbeats, as the packed 64-bit words of a
// spectrum.BitSet (bit i of the program lives in word i/64). Seq numbers
// windows monotonically per device; At is the device's virtual time when
// the window closed (0 for the still-open window).
type SpectrumWindow struct {
	Seq   uint64   `json:"seq"`
	At    sim.Time `json:"at,omitempty"`
	Words []uint64 `json:"words,omitempty"`
}

// SpectrumDelta is the payload of a TypeSpectrumDelta frame: one closed
// coverage window as a sparse word list. Seq is the window's sequence
// number in the device recorder's window space (shared with the windows a
// TypeSnapshot carries, so one per-device fold watermark orders both
// evidence paths); Blocks is the instrumented block count, vetted against
// the fleet's program layout exactly like Snapshot.Blocks. Index holds the
// strictly ascending packed-word indices whose 64-bit coverage words are
// nonzero, Words the matching words — only what the window touched, which
// is what keeps the per-heartbeat cost bounded: a window touching b blocks
// costs at most b/64+b words on the wire regardless of program size.
type SpectrumDelta struct {
	Seq    uint64   `json:"seq"`
	Blocks int      `json:"blocks"`
	Index  []uint32 `json:"index,omitempty"`
	Words  []uint64 `json:"words,omitempty"`
}

// Snapshot is the payload of a TypeSnapshot frame: the device's retained
// coverage windows plus flight-recorder context. Blocks is the instrumented
// block count the windows are sized for — fleet-level folding only accepts
// snapshots whose Blocks matches the fleet's program layout.
type Snapshot struct {
	Blocks int `json:"blocks"`
	// Events and Dropped describe the event flight recorder at capture
	// time: how many raw events the ring retains and how many fell off.
	Events  uint64 `json:"events,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Windows are the retained coverage windows, oldest first.
	Windows []SpectrumWindow `json:"windows,omitempty"`
}

// Message is one frame.
type Message struct {
	Type MsgType `json:"type"`
	// SUO identifies the system under observation (Hello, and echoed after).
	SUO string `json:"suo,omitempty"`
	// Event carries input/output/state observations.
	Event *event.Event `json:"event,omitempty"`
	// Control carries a command.
	Control ControlCommand `json:"control,omitempty"`
	// Target optionally narrows a control command to one component.
	Target string `json:"target,omitempty"`
	// Error carries an error report.
	Error *ErrorReport `json:"error,omitempty"`
	// At is the sender's virtual time.
	At sim.Time `json:"at,omitempty"`
	// Codec is carried by Hello frames only: the client's requested payload
	// codec, and the server's accepted one in the reply. Empty means JSON.
	Codec string `json:"codec,omitempty"`
	// Snapshot carries a device's coverage evidence (TypeSnapshot frames;
	// in journals the Target field labels it "fail" or "pass").
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Durability is carried by Hello frames only: the client's requested
	// ack class, and the server's granted one in the reply. Empty means
	// fsync (the strongest promise).
	Durability Durability `json:"durability,omitempty"`
	// Checkpoint carries a captured state snapshot (TypeCheckpoint frames,
	// journal-only).
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	// Credits is a frame-credit grant (flow control): on Hello replies the
	// connection's initial window, on heartbeat echoes and TypeCredit
	// frames a delta restoring credits the server has consumed. Zero means
	// no grant; a Hello reply with zero credits means the server does not
	// enforce flow control on this connection.
	Credits uint32 `json:"credits,omitempty"`
	// Shed carries a shed-marker record (TypeShed frames, journal-only).
	Shed *ShedRecord `json:"shed,omitempty"`
	// Role is carried by Hello frames only: the client's declared
	// connection role (RoleEdge for an edge uplink), echoed in the server's
	// reply when accepted. Empty means a device connection.
	Role string `json:"role,omitempty"`
	// Rollup carries a federation rollup delta (TypeRollup frames).
	Rollup *RollupDelta `json:"rollup,omitempty"`
	// Handoff carries a device-migration handoff (TypeHandoff frames and
	// journal records; also attached to edge Hello frames as the range
	// claim — see HandoffRecord).
	Handoff *HandoffRecord `json:"handoff,omitempty"`
	// Delta carries one sparse coverage-window delta (TypeSpectrumDelta
	// frames; in journals the Target field labels it "fail" or "pass",
	// exactly like labeled snapshot evidence).
	Delta *SpectrumDelta `json:"delta,omitempty"`
	// Trace carries the frame's trace context (§6 observability plane):
	// sampled control pushes attach it so the device's ack echoes it back,
	// and edge rollup frames attach the edge's current tail-latency
	// exemplar so the aggregator can resolve a p999 spike to the span
	// chain that produced it. Absent on unsampled traffic — pre-tracing
	// peers round-trip unchanged.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TraceContext is the wire-propagated identity of one traced frame
// lifecycle: a fleet-unique trace ID plus the span the receiver should
// parent its own spans under. It crosses tiers — daemon → device on
// control pushes (echoed on the ack), edge → aggregator on rollup frames —
// so a span chain reconstructs causality across process boundaries without
// log correlation. IDs render as %016x hex in every export.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	Parent  uint64 `json:"parent,omitempty"`
}

// RollupDelta is the payload of a TypeRollup frame: the signed change in an
// edge's cumulative fleet counters since its last acknowledged flush. Every
// fleet-level statistic in this repo is an order-independent integer fold,
// so deltas compose exactly: the aggregator's merged view is the plain sum
// of the deltas it has credited, regardless of arrival order across edges.
// Deltas are signed because live migration moves a device's monitor
// counters to another edge — the source's cumulative rollup legitimately
// decreases by exactly what the destination's gains.
type RollupDelta struct {
	// Seq numbers the edge's flushes monotonically from 1; the aggregator
	// acks a delta with a TypeAck frame whose At field carries Seq, and
	// ignores (but still acks) any Seq it has already credited, making the
	// delta stream idempotent across reconnects. In the aggregator's resume
	// baseline Seq is the last sequence number it credited (0 if none).
	Seq uint64 `json:"seq,omitempty"`
	// Devices is the edge's absolute live-device count at flush time — a
	// gauge, not a delta, so a restarted aggregator cannot drift it.
	Devices int64 `json:"devices,omitempty"`
	// Counters are the named signed counter deltas (cumulative in the
	// resume baseline). Zero-delta counters are omitted.
	Counters []RollupCounter `json:"counters,omitempty"`
}

// RollupCounter is one named signed counter delta.
type RollupCounter struct {
	Name string `json:"name"`
	V    int64  `json:"v"`
}

// HandoffRecord is the payload of a TypeHandoff frame or journal record —
// and, attached to an edge's Hello, the edge's range claim. The three uses
// share the struct so the codec and the journal speak one layout:
//
//   - Edge Hello claim: From is the edge ID, Range/Of the contiguous
//     device-ID hash range it serves (range Range of Of, fleet.RangeOf),
//     Dir its journal directory (advertised so the aggregator can direct a
//     surviving edge to adopt it after a crash; empty when not journaling).
//   - Migration frame: SUO on the enclosing Message names the device, From
//     and To the edges, Pos the source journal's record count at capture,
//     and the Message's Checkpoint payload the monitor snapshot.
//   - Journal record: the source edge journals the frame with Out=true
//     before releasing the device (replay removes it); the destination
//     journals it with Out=false before restoring (replay rebuilds it).
//     The aggregator journals range repoints (Range set, no checkpoint).
type HandoffRecord struct {
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Pos   uint64 `json:"pos,omitempty"`
	Range int    `json:"range,omitempty"`
	Of    int    `json:"of,omitempty"`
	Dir   string `json:"dir,omitempty"`
	Out   bool   `json:"out,omitempty"`
}

// ShedRecord is the payload of a TypeShed journal record: how many of one
// device's frames the ingestion server shed under queue pressure since the
// previous marker for that device, by tier. Control/diagnosis traffic has
// no field here by design — it is never shed.
type ShedRecord struct {
	Observations uint64 `json:"observations,omitempty"`
	Heartbeats   uint64 `json:"heartbeats,omitempty"`
}

// Checkpoint planes: which subsystem's state a checkpoint record captures.
const (
	// PlaneDevice: one device's monitor state (stats counters, observable
	// states, model variables/configuration) at Checkpoint.At.
	PlaneDevice = "device"
	// PlaneShard: one journal shard's pool counters. The terminal record
	// of every shard's checkpoint batch (Final=true); a batch without it
	// is incomplete and not a valid resume point.
	PlaneShard = "shard"
	// PlaneControl: the recovery controller's escalation ladder and tally.
	PlaneControl = "control"
	// PlaneFleet: a whole pool's summed traffic counters, carried on the
	// TypeHandoff baseline record an edge journals when it adopts a dead
	// peer's journal (ARCHITECTURE.md §7.4). Replay re-applies it as an
	// additive rollup baseline keyed by the source edge, never colliding
	// with the pool's own PlaneShard baselines.
	PlaneFleet = "fleet"
	// PlaneDiagnose: the fleet diagnosis spectrum, fold watermarks and
	// tally.
	PlaneDiagnose = "diagnose"
)

// Checkpoint is the payload of a TypeCheckpoint record: a flat, codec-
// friendly rendering of one plane's captured state. Which fields are
// populated depends on Plane; names in the list fields are plane-specific
// (see internal/core, internal/fleet, internal/control, internal/diagnose
// for the producing/consuming sides, and ARCHITECTURE.md §3 for the record
// format).
type Checkpoint struct {
	Plane string `json:"plane"`
	// Shard is the journal shard the captured state belongs to.
	Shard int `json:"shard,omitempty"`
	// Seq is the checkpoint generation, monotonic per journal; every
	// record of one capture carries the same Seq.
	Seq uint64 `json:"seq,omitempty"`
	// Final marks the terminal record of a shard's checkpoint batch: the
	// batch is complete — and a valid replay resume point — only once its
	// Final record is durable.
	Final bool `json:"final,omitempty"`
	// Profile is the -suo monitor profile the journal's frames are
	// observed under, carried on Final records so the profile marker
	// survives segment truncation.
	Profile string `json:"profile,omitempty"`
	// At is the capture virtual time (device planes).
	At sim.Time `json:"at,omitempty"`

	Counters []CheckpointCounter `json:"counters,omitempty"`
	Vars     []CheckpointVar     `json:"vars,omitempty"`
	States   []CheckpointState   `json:"states,omitempty"`
	Obs      []CheckpointObs     `json:"obs,omitempty"`
	Devices  []CheckpointDevice  `json:"devices,omitempty"`

	// Spectrum state (diagnose plane): sparse nonzero per-block fail/pass
	// execution counters over a Blocks-sized program layout.
	Blocks int              `json:"blocks,omitempty"`
	NFail  int              `json:"nfail,omitempty"`
	NPass  int              `json:"npass,omitempty"`
	Cells  []CheckpointCell `json:"cells,omitempty"`

	// Parts are the per-verdict evidence partitions of a continuous
	// diagnosis engine (multi-fault disambiguation): each carries its own
	// sparse spectrum alongside the merged Cells above.
	Parts []CheckpointPart `json:"parts,omitempty"`
}

// CheckpointCounter is one named uint64 counter.
type CheckpointCounter struct {
	Name string `json:"name"`
	V    uint64 `json:"v"`
}

// CheckpointVar is one named float state value (model variables, observable
// last values).
type CheckpointVar struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// CheckpointState is one named string state value (region current leaves,
// shallow-history entries).
type CheckpointState struct {
	Name string `json:"name"`
	V    string `json:"v"`
}

// CheckpointObs is one observable's comparator state.
type CheckpointObs struct {
	Name        string   `json:"name"`
	Consecutive int      `json:"consecutive,omitempty"`
	InError     bool     `json:"inError,omitempty"`
	EverSeen    bool     `json:"everSeen,omitempty"`
	Silenced    bool     `json:"silenced,omitempty"`
	LastValue   float64  `json:"lastValue,omitempty"`
	LastSeen    sim.Time `json:"lastSeen,omitempty"`
}

// CheckpointDevice is one device's plane-specific packed state (controller
// ladder position, diagnosis fold watermark, ...).
type CheckpointDevice struct {
	ID    string   `json:"id"`
	At    sim.Time `json:"at,omitempty"`
	Stats []uint64 `json:"stats,omitempty"`
}

// CheckpointCell is one block's sparse spectrum counters.
type CheckpointCell struct {
	Block uint32 `json:"block"`
	Fail  uint32 `json:"fail,omitempty"`
	Pass  uint32 `json:"pass,omitempty"`
}

// CheckpointPart is one evidence partition of a continuous diagnosis
// checkpoint: the suspect device the partition tracks and its own sparse
// spectrum (same cell representation as the merged spectrum).
type CheckpointPart struct {
	ID    string           `json:"id"`
	NFail int              `json:"nfail,omitempty"`
	NPass int              `json:"npass,omitempty"`
	Cells []CheckpointCell `json:"cells,omitempty"`
}

// MaxFrame bounds a frame's payload size; oversized frames indicate protocol
// corruption and are rejected.
const MaxFrame = 1 << 20

// bufRetain caps the frame-buffer capacity an Encoder or Decoder keeps
// between frames. One unusually large frame (up to MaxFrame) must not pin
// ~1 MiB for the connection's lifetime — on a daemon hosting very large
// fleets of mostly-small-frame connections that adds up — so storage beyond
// the cap is released once the frame is processed.
const bufRetain = 64 << 10

// Encoder writes frames to w. Safe for concurrent use.
type Encoder struct {
	mu    sync.Mutex
	w     io.Writer
	codec Codec
	// buf is the reused frame buffer: 4-byte header + payload, written in a
	// single Write so concurrent encoders never interleave partial frames.
	buf []byte
}

// NewEncoder returns an Encoder writing JSON-codec frames to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w, codec: JSON} }

// SetCodec switches the payload codec for subsequent frames. It
// synchronises with in-flight Encodes; callers sequence it against the
// protocol (after the Hello exchange).
func (e *Encoder) SetCodec(c Codec) {
	e.mu.Lock()
	e.codec = c
	e.mu.Unlock()
}

// Encode writes one frame.
func (e *Encoder) Encode(m Message) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cap(e.buf) < 4 {
		e.buf = make([]byte, 4, 512)
	}
	buf, err := e.codec.Append(e.buf[:4], m)
	if err != nil {
		return err
	}
	if cap(buf) > bufRetain {
		e.buf = nil // outlier frame: release the storage after this write
	} else {
		e.buf = buf[:4] // keep the (possibly grown) storage for the next frame
	}
	n := len(buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Decoder reads frames from r. Not safe for concurrent use: the payload
// buffer is reused between Decode calls (codecs copy what they keep, so the
// returned Messages themselves are independent of it).
type Decoder struct {
	r     io.Reader
	codec Codec
	// buf is the reused payload buffer, grown on demand so steady-state
	// decoding performs no per-frame buffer allocation; an outlier frame
	// that grows it past bufRetain releases it after decoding.
	buf []byte
}

// NewDecoder returns a Decoder reading JSON-codec frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r, codec: JSON} }

// SetCodec switches the payload codec for subsequent frames.
func (d *Decoder) SetCodec(c Codec) { d.codec = c }

// Decode reads one frame. It returns io.EOF on clean stream end.
func (d *Decoder) Decode() (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Message{}, fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	if uint32(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	payload := d.buf[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return Message{}, fmt.Errorf("wire: read payload: %w", err)
	}
	var m Message
	err := d.codec.Unmarshal(payload, &m)
	if cap(d.buf) > bufRetain {
		d.buf = nil // outlier frame: release the storage (see bufRetain)
	}
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// Conn couples an Encoder and Decoder over one duplex stream.
type Conn struct {
	*Encoder
	*Decoder
	c io.Closer
}

// NewConn wraps a duplex stream. closer may be nil.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{Encoder: NewEncoder(rw), Decoder: NewDecoder(rw)}
	if cl, ok := rw.(io.Closer); ok {
		c.c = cl
	}
	return c
}

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// SetCodec switches both directions of the connection to the codec.
func (c *Conn) SetCodec(codec Codec) {
	c.Encoder.SetCodec(codec)
	c.Decoder.SetCodec(codec)
}

// Handshake performs the client side of the Hello exchange, the one way a
// client opens a conversation: it sends hello (Type is set here; SUO names
// the device or edge, Codec and Durability are requests — empty for json and
// fsync — and an edge uplink adds Role and its Handoff range claim), waits
// for the server's reply and switches the connection to the codec the server
// accepted. Hello frames always travel as JSON, so negotiation works
// regardless of the outcome.
//
// The reply is returned with what the server granted: Codec and Durability
// normalised to known names (a server from before tiered durability leaves
// the field empty, which vets back to fsync — the promise it actually
// keeps), and Credits the initial frame-credit window. A zero window means
// the server does not enforce flow control; a non-zero one obliges the
// client to spend one credit per observation frame and to stop at zero until
// a heartbeat echo or TypeCredit frame replenishes it — a peer that keeps
// sending is disconnected as hostile. The reply must echo the requested
// Role: an edge answered with an empty role dialed a server that predates
// (or refuses) federation, and the uplink must not proceed.
func (c *Conn) Handshake(hello Message) (reply Message, err error) {
	hello.Type = TypeHello
	if err := c.Encode(hello); err != nil {
		return Message{}, fmt.Errorf("wire: handshake send: %w", err)
	}
	if reply, err = c.Decode(); err != nil {
		return Message{}, fmt.Errorf("wire: handshake reply: %w", err)
	}
	if reply.Type == TypeError && reply.Error != nil {
		return Message{}, fmt.Errorf("wire: handshake rejected: %s", reply.Error.Detail)
	}
	if reply.Type != TypeHello {
		return Message{}, fmt.Errorf("wire: handshake reply has type %q, want %q", reply.Type, TypeHello)
	}
	if reply.Role != hello.Role {
		return Message{}, fmt.Errorf("wire: server did not grant role %q (reply role %q)", hello.Role, reply.Role)
	}
	codec, _ := CodecByName(reply.Codec)
	c.SetCodec(codec)
	reply.Codec = codec.Name()
	reply.Durability, _ = DurabilityByName(string(reply.Durability))
	return reply, nil
}

// ReadHello performs the first half of the server side of the Hello
// exchange: it reads and checks the client's Hello frame without replying,
// so the server can vet the identification (ID present, not a duplicate,
// server still admitting, ...) before committing to the connection. Follow
// with ReplyHello to accept or RejectHello to refuse.
func (c *Conn) ReadHello() (Message, error) {
	hello, err := c.Decode()
	if err != nil {
		return Message{}, err
	}
	if hello.Type != TypeHello {
		return hello, fmt.Errorf("wire: expected hello frame, got %q", hello.Type)
	}
	return hello, nil
}

// ReplyHello accepts a Hello previously read with ReadHello: it picks the
// requested codec if known (JSON otherwise — JSON is the universal
// fallback), sends a Hello reply naming the accepted codec and echoing
// hello.Durability as the granted ack class (servers that vet or downgrade
// the request overwrite hello.Durability before calling), and switches the
// connection to the codec. hello.Credits is echoed the same way: a server
// enforcing flow control overwrites it with the connection's initial
// credit window before calling (clients request nothing — the window is
// the server's to grant). hello.Role is echoed verbatim: a server that
// grants an edge uplink leaves it as RoleEdge, a server that does not
// understand roles never sees a non-empty one from its own clients.
func (c *Conn) ReplyHello(hello Message) (Codec, error) {
	codec, _ := CodecByName(hello.Codec)
	reply := Message{Type: TypeHello, SUO: hello.SUO, Codec: codec.Name(),
		Durability: hello.Durability, Credits: hello.Credits, Role: hello.Role}
	if err := c.Encode(reply); err != nil {
		return nil, fmt.Errorf("wire: hello reply: %w", err)
	}
	c.SetCodec(codec)
	return codec, nil
}

// RejectHello refuses a Hello previously read with ReadHello: the handshake
// reply is a TypeError frame instead of a Hello, so the client's Handshake
// (and Dial) fails synchronously with the detail. No codec switch happens —
// the rejection travels as JSON, like the Hello frames themselves. A server
// whose admission fails after ReplyHello sends the same frame in the codec
// by then in effect: the client reads it as a post-handshake error.
func (c *Conn) RejectHello(suo, detail string) error {
	rep := ErrorReport{Detector: "ingest", Detail: detail}
	return c.Encode(Message{Type: TypeError, SUO: suo, Error: &rep})
}

// SendEvent is a convenience for the SUO side: it frames an observation.
func (c *Conn) SendEvent(suo string, e event.Event) error {
	var t MsgType
	switch e.Kind {
	case event.Input:
		t = TypeInput
	case event.Output:
		t = TypeOutput
	case event.State:
		t = TypeState
	default:
		return fmt.Errorf("wire: cannot frame event kind %v", e.Kind)
	}
	return c.Encode(Message{Type: t, SUO: suo, Event: &e, At: e.At})
}
