package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"trader/internal/event"
	"trader/internal/sim"
)

// A Codec translates one Message to and from a frame payload. The framing
// layer (4-byte big-endian length prefix, MaxFrame bound) is codec-
// independent; only the payload bytes differ. Codecs must be stateless and
// safe for concurrent use.
//
// Which codec a connection speaks is negotiated in the Hello exchange (see
// Conn.Handshake and Conn.ReplyHello): the Hello frames themselves are
// always JSON, so any client can open a conversation, and both sides switch
// to the agreed codec for every frame after it. JSON is the default and the
// fallback when the peer's requested codec is unknown.
type Codec interface {
	// Name identifies the codec on the wire (Message.Codec in Hello frames).
	Name() string
	// Append marshals m and appends the payload to dst, returning the
	// extended slice. Append must not retain dst.
	Append(dst []byte, m Message) ([]byte, error)
	// Unmarshal parses a payload into m. It must not retain payload: the
	// framing layer reuses the buffer for the next frame.
	Unmarshal(payload []byte, m *Message) error
}

// Codec names.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// JSON is the default codec: each payload is the Message marshalled with
// encoding/json. Self-describing and debuggable (frames are readable with
// `strings`), at the cost of reflection-driven encode/decode on the hot
// ingestion path.
var JSON Codec = jsonCodec{}

// Binary is the compact codec: a hand-rolled, reflection-free layout
// (fixed tag bytes, uvarint lengths, zig-zag varint times, IEEE 754 bits
// for values) that decodes several times faster than JSON with fewer
// allocations per frame. See ARCHITECTURE.md for the exact byte layout.
var Binary Codec = binaryCodec{}

// CodecByName resolves a negotiated codec name. Unknown names (including
// the empty string, which old clients send) fall back to JSON and report
// ok=false so callers can log the downgrade.
func CodecByName(name string) (c Codec, ok bool) {
	switch name {
	case CodecBinary:
		return Binary, true
	case CodecJSON, "":
		return JSON, name == CodecJSON
	default:
		return JSON, false
	}
}

type jsonCodec struct{}

func (jsonCodec) Name() string { return CodecJSON }

func (jsonCodec) Append(dst []byte, m Message) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return dst, fmt.Errorf("wire: marshal: %w", err)
	}
	return append(dst, payload...), nil
}

func (jsonCodec) Unmarshal(payload []byte, m *Message) error {
	if err := json.Unmarshal(payload, m); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}

// Binary payload layout (after the codec-independent 4-byte length prefix):
//
//	u8   message type tag (see typeTag)
//	uvar flags: bit0 = event present, bit1 = error present,
//	     bit2 = snapshot present, bit3 = checkpoint present,
//	     bit4 = shed-marker present, bit5 = rollup present,
//	     bit6 = handoff present, bit7 = spectrum-delta present,
//	     bit8 = trace-context present. Flag values 0–127 encode as the
//	     single byte they always were; the uvarint widening is what let
//	     bit8 exist once the byte was full, and pre-trace frames are
//	     byte-identical under it.
//	str  SUO                        (str = uvarint length + raw bytes)
//	var  At                         (var = zig-zag varint, sim.Time ticks)
//	str  Control
//	str  Target
//	str  Codec
//	str  Durability
//	uvar Credits
//	str  Role
//	-- if flags bit0, the event record:
//	u8   kind; str name; str source; var at; uvar seq
//	uvar n; n × (str name, 8-byte little-endian IEEE 754 value)
//	-- if flags bit1, the error report:
//	str detector; str observable; 8B expected; 8B actual
//	uvar consecutive; var at; str detail
//	-- if flags bit2, the coverage snapshot:
//	uvar blocks; uvar events; uvar dropped
//	uvar n; n × (uvar seq, var at, uvar nwords, nwords × 8-byte LE word)
//	-- if flags bit3, the checkpoint record:
//	str plane; uvar shard; uvar seq; u8 final; str profile; var at
//	uvar n; n × (str name, uvar v)            counters
//	uvar n; n × (str name, 8B LE IEEE 754)    vars
//	uvar n; n × (str name, str v)             states
//	uvar n; n × (str name, uvar consecutive,  observables
//	             u8 bits(inError|everSeen|silenced), 8B value, var lastSeen)
//	uvar blocks; uvar nfail; uvar npass
//	uvar n; n × (uvar block, uvar fail, uvar pass)   spectrum cells
//	uvar n; n × (str id, var at, uvar k, k × uvar)   devices
//	-- if flags bit4, the shed-marker record:
//	uvar observations; uvar heartbeats
//	-- if flags bit5, the rollup delta:
//	uvar seq; var devices
//	uvar n; n × (str name, var v)             signed counter deltas
//	-- if flags bit6, the handoff record:
//	str from; str to; uvar pos; uvar range; uvar of; str dir; u8 out
//	-- if flags bit7, the spectrum delta:
//	uvar seq; uvar blocks
//	uvar n; n × (uvar index, var word)        sparse coverage words,
//	                                          strictly ascending indices
//	-- if flags bit8, the trace context:
//	uvar traceID; uvar parent
//
// The checkpoint record (bit3) additionally carries, after the devices
// list, the per-verdict partitions of a continuous diagnosis engine:
//
//	uvar n; n × (str id, uvar nfail, uvar npass,
//	             uvar k, k × (uvar block, uvar fail, uvar pass))
//
// Strings are length-checked against the remaining payload before any
// allocation, so a hostile length cannot force a large allocation beyond
// MaxFrame. Trailing bytes after a well-formed message are rejected.
type binaryCodec struct{}

func (binaryCodec) Name() string { return CodecBinary }

const (
	flagEvent         = 1 << 0
	flagError         = 1 << 1
	flagSnapshot      = 1 << 2
	flagCheckpoint    = 1 << 3
	flagShed          = 1 << 4
	flagRollup        = 1 << 5
	flagHandoff       = 1 << 6
	flagSpectrumDelta = 1 << 7
	flagTrace         = 1 << 8
)

// flagOfField names every flag bit after the Message field it gates —
// ARCHITECTURE.md §2.9 carries the normative flag-bit registry, and
// TestFrameRegistry (run by `make docs`) fails the build when this map and
// that table disagree. Like tags, bits are append-only: never renumbered,
// never reused.
var flagOfField = map[string]uint64{
	"event":      flagEvent,
	"error":      flagError,
	"snapshot":   flagSnapshot,
	"checkpoint": flagCheckpoint,
	"shed":       flagShed,
	"rollup":     flagRollup,
	"handoff":    flagHandoff,
	"delta":      flagSpectrumDelta,
	"trace":      flagTrace,
}

// tagOfType assigns every message type its binary wire tag. ARCHITECTURE.md
// §2.9 carries the normative frame registry; TestFrameRegistry (run by
// `make docs`) fails the build when this map and that table disagree.
var tagOfType = map[MsgType]byte{
	TypeHello:         1,
	TypeInput:         2,
	TypeOutput:        3,
	TypeState:         4,
	TypeControl:       5,
	TypeError:         6,
	TypeHeartbeat:     7,
	TypeSpecInfo:      8,
	TypeAck:           9,
	TypeSnapshotReq:   10,
	TypeSnapshot:      11,
	TypeCheckpoint:    12,
	TypeCredit:        13,
	TypeShed:          14,
	TypeRollup:        15,
	TypeHandoff:       16,
	TypeSpectrumDelta: 17,
}

// typeOfTag inverts tagOfType; "" marks a tag the codec does not know. An
// array, not a map: every binary decode starts with this lookup.
var typeOfTag = func() (a [256]MsgType) {
	for t, b := range tagOfType {
		a[b] = t
	}
	return a
}()

// MsgTypes lists every frame type the codec knows, in tag order. A layer
// that must decide something for each type (the ingestion daemon's frame
// handler table) checks its decisions against this list, so a new type
// cannot land without one.
func MsgTypes() []MsgType {
	out := make([]MsgType, 0, len(tagOfType))
	for tag := byte(1); len(out) < len(tagOfType); tag++ {
		if t := typeOfTag[tag]; t != "" {
			out = append(out, t)
		}
	}
	return out
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func (binaryCodec) Append(dst []byte, m Message) ([]byte, error) {
	tag, ok := tagOfType[m.Type]
	if !ok {
		return dst, fmt.Errorf("wire: binary: unencodable message type %q", m.Type)
	}
	var flags uint64
	if m.Event != nil {
		flags |= flagEvent
	}
	if m.Error != nil {
		flags |= flagError
	}
	if m.Snapshot != nil {
		flags |= flagSnapshot
	}
	if m.Checkpoint != nil {
		flags |= flagCheckpoint
	}
	if m.Shed != nil {
		flags |= flagShed
	}
	if m.Rollup != nil {
		flags |= flagRollup
	}
	if m.Handoff != nil {
		flags |= flagHandoff
	}
	if m.Delta != nil {
		flags |= flagSpectrumDelta
	}
	if m.Trace != nil {
		flags |= flagTrace
	}
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, flags)
	dst = appendStr(dst, m.SUO)
	dst = binary.AppendVarint(dst, int64(m.At))
	dst = appendStr(dst, string(m.Control))
	dst = appendStr(dst, m.Target)
	dst = appendStr(dst, m.Codec)
	dst = appendStr(dst, string(m.Durability))
	dst = binary.AppendUvarint(dst, uint64(m.Credits))
	dst = appendStr(dst, m.Role)
	if e := m.Event; e != nil {
		dst = append(dst, byte(e.Kind))
		dst = appendStr(dst, e.Name)
		dst = appendStr(dst, e.Source)
		dst = binary.AppendVarint(dst, int64(e.At))
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(e.Values)))
		for _, v := range e.Values {
			dst = appendStr(dst, v.Name)
			dst = appendF64(dst, v.V)
		}
	}
	if r := m.Error; r != nil {
		dst = appendStr(dst, r.Detector)
		dst = appendStr(dst, r.Observable)
		dst = appendF64(dst, r.Expected)
		dst = appendF64(dst, r.Actual)
		dst = binary.AppendUvarint(dst, uint64(r.Consecutive))
		dst = binary.AppendVarint(dst, int64(r.At))
		dst = appendStr(dst, r.Detail)
	}
	if s := m.Snapshot; s != nil {
		dst = binary.AppendUvarint(dst, uint64(s.Blocks))
		dst = binary.AppendUvarint(dst, s.Events)
		dst = binary.AppendUvarint(dst, s.Dropped)
		dst = binary.AppendUvarint(dst, uint64(len(s.Windows)))
		for _, w := range s.Windows {
			dst = binary.AppendUvarint(dst, w.Seq)
			dst = binary.AppendVarint(dst, int64(w.At))
			dst = binary.AppendUvarint(dst, uint64(len(w.Words)))
			for _, word := range w.Words {
				dst = binary.LittleEndian.AppendUint64(dst, word)
			}
		}
	}
	if cp := m.Checkpoint; cp != nil {
		dst = appendStr(dst, cp.Plane)
		dst = binary.AppendUvarint(dst, uint64(cp.Shard))
		dst = binary.AppendUvarint(dst, cp.Seq)
		var fin byte
		if cp.Final {
			fin = 1
		}
		dst = append(dst, fin)
		dst = appendStr(dst, cp.Profile)
		dst = binary.AppendVarint(dst, int64(cp.At))
		dst = binary.AppendUvarint(dst, uint64(len(cp.Counters)))
		for _, c := range cp.Counters {
			dst = appendStr(dst, c.Name)
			dst = binary.AppendUvarint(dst, c.V)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.Vars)))
		for _, v := range cp.Vars {
			dst = appendStr(dst, v.Name)
			dst = appendF64(dst, v.V)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.States)))
		for _, s := range cp.States {
			dst = appendStr(dst, s.Name)
			dst = appendStr(dst, s.V)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.Obs)))
		for _, o := range cp.Obs {
			dst = appendStr(dst, o.Name)
			dst = binary.AppendUvarint(dst, uint64(o.Consecutive))
			var bits byte
			if o.InError {
				bits |= 1
			}
			if o.EverSeen {
				bits |= 2
			}
			if o.Silenced {
				bits |= 4
			}
			dst = append(dst, bits)
			dst = appendF64(dst, o.LastValue)
			dst = binary.AppendVarint(dst, int64(o.LastSeen))
		}
		dst = binary.AppendUvarint(dst, uint64(cp.Blocks))
		dst = binary.AppendUvarint(dst, uint64(cp.NFail))
		dst = binary.AppendUvarint(dst, uint64(cp.NPass))
		dst = binary.AppendUvarint(dst, uint64(len(cp.Cells)))
		for _, c := range cp.Cells {
			dst = binary.AppendUvarint(dst, uint64(c.Block))
			dst = binary.AppendUvarint(dst, uint64(c.Fail))
			dst = binary.AppendUvarint(dst, uint64(c.Pass))
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.Devices)))
		for _, d := range cp.Devices {
			dst = appendStr(dst, d.ID)
			dst = binary.AppendVarint(dst, int64(d.At))
			dst = binary.AppendUvarint(dst, uint64(len(d.Stats)))
			for _, s := range d.Stats {
				dst = binary.AppendUvarint(dst, s)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.Parts)))
		for _, p := range cp.Parts {
			dst = appendStr(dst, p.ID)
			dst = binary.AppendUvarint(dst, uint64(p.NFail))
			dst = binary.AppendUvarint(dst, uint64(p.NPass))
			dst = binary.AppendUvarint(dst, uint64(len(p.Cells)))
			for _, c := range p.Cells {
				dst = binary.AppendUvarint(dst, uint64(c.Block))
				dst = binary.AppendUvarint(dst, uint64(c.Fail))
				dst = binary.AppendUvarint(dst, uint64(c.Pass))
			}
		}
	}
	if sh := m.Shed; sh != nil {
		dst = binary.AppendUvarint(dst, sh.Observations)
		dst = binary.AppendUvarint(dst, sh.Heartbeats)
	}
	if ro := m.Rollup; ro != nil {
		dst = binary.AppendUvarint(dst, ro.Seq)
		dst = binary.AppendVarint(dst, ro.Devices)
		dst = binary.AppendUvarint(dst, uint64(len(ro.Counters)))
		for _, c := range ro.Counters {
			dst = appendStr(dst, c.Name)
			dst = binary.AppendVarint(dst, c.V)
		}
	}
	if h := m.Handoff; h != nil {
		dst = appendStr(dst, h.From)
		dst = appendStr(dst, h.To)
		dst = binary.AppendUvarint(dst, h.Pos)
		dst = binary.AppendUvarint(dst, uint64(h.Range))
		dst = binary.AppendUvarint(dst, uint64(h.Of))
		dst = appendStr(dst, h.Dir)
		var out byte
		if h.Out {
			out = 1
		}
		dst = append(dst, out)
	}
	if d := m.Delta; d != nil {
		dst = binary.AppendUvarint(dst, d.Seq)
		dst = binary.AppendUvarint(dst, uint64(d.Blocks))
		n := len(d.Index)
		if len(d.Words) < n {
			n = len(d.Words)
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(d.Index[i]))
			dst = binary.AppendVarint(dst, int64(d.Words[i]))
		}
	}
	if tc := m.Trace; tc != nil {
		dst = binary.AppendUvarint(dst, tc.TraceID)
		dst = binary.AppendUvarint(dst, tc.Parent)
	}
	return dst, nil
}

// binReader walks a binary payload with bounds checking; the first failure
// sticks so parsing code can read a whole record and test err once.
type binReader struct {
	b   []byte
	err error
	in  *BinaryInterner // nil: every string is a fresh copy
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary: truncated or corrupt %s", what)
	}
}

func (r *binReader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *binReader) uvar(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) str(what string) string {
	if r.err == nil && len(r.b) > 0 && r.b[0] == 0 {
		r.b = r.b[1:]
		return "" // most string fields of most frames: one zero length byte
	}
	n := r.uvar(what)
	if r.err != nil || n == 0 {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	raw := r.b[:n]
	r.b = r.b[n:]
	if r.in != nil {
		return r.in.intern(raw)
	}
	return string(raw)
}

// Intern-table bounds: strings longer than internMaxLen are copied, not
// interned, and a table that reaches internMaxEntries starts over — so
// neither a journal naming millions of devices nor a hostile Detail can grow
// it past ~internMaxEntries × internMaxLen bytes, and after a start-over the
// table refills with whatever the journal is naming now.
const (
	internMaxEntries = 1 << 16
	internMaxLen     = 64
)

// internHot is the size of the interner's direct-mapped last-hit cache: a
// record names its device, its event, its source and a value or two, and a
// run of records repeats them, so a few dozen slots catch nearly every
// lookup before it reaches the map.
const internHot = 64

// BinaryInterner decodes binary payloads exactly as Binary.Unmarshal does —
// same acceptance, same Message — but hands out one shared copy of each
// short string it has seen before. It is for long sequential reads where a
// few names repeat in every record (a journal replay: device IDs, event and
// value names, sources, counter names), and turns most of a record's string
// allocations into cache or map hits. Not safe for concurrent use; the zero
// value is ready. The live wire.Decoder does not use it.
type BinaryInterner struct {
	tab map[string]string
	// hot caches the last string seen in each slot, so a repeated name costs
	// a byte compare instead of a map probe. Every entry is also in tab, or
	// was before tab last started over.
	hot [internHot]string
}

// Unmarshal parses a binary payload into m. It does not retain payload.
func (in *BinaryInterner) Unmarshal(payload []byte, m *Message) error {
	r := binReader{b: payload, in: in}
	return r.message(m)
}

func (in *BinaryInterner) intern(raw []byte) string {
	if len(raw) > internMaxLen {
		return string(raw)
	}
	// raw is non-empty (str returns "" before interning); the slot mixes its
	// length with its two ends, where IDs and names differ.
	slot := &in.hot[(len(raw)*31+int(raw[0])*7+int(raw[len(raw)-1]))%internHot]
	if *slot == string(raw) {
		return *slot
	}
	s, ok := in.tab[string(raw)] // no allocation: map-lookup conversion
	if !ok {
		if in.tab == nil || len(in.tab) >= internMaxEntries {
			in.tab = make(map[string]string)
		}
		s = string(raw)
		in.tab[s] = s
	}
	*slot = s
	return s
}

func (r *binReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (binaryCodec) Unmarshal(payload []byte, m *Message) error {
	r := binReader{b: payload}
	return r.message(m)
}

// eventWithValue backs a decoded one-value event: Values aliases v.
type eventWithValue struct {
	e event.Event
	v [1]event.Value
}

// message parses the whole payload into m.
func (r *binReader) message(m *Message) error {
	tag := r.u8("type")
	typ := typeOfTag[tag]
	if r.err == nil && typ == "" {
		return fmt.Errorf("wire: binary: unknown message type tag %d", tag)
	}
	flags := r.uvar("flags")
	m.Type = typ
	m.SUO = r.str("suo")
	m.At = sim.Time(r.varint("at"))
	m.Control = ControlCommand(r.str("control"))
	m.Target = r.str("target")
	m.Codec = r.str("codec")
	m.Durability = Durability(r.str("durability"))
	m.Credits = uint32(r.uvar("credits"))
	m.Role = r.str("role")
	if flags&flagEvent != 0 {
		hdr := event.Event{
			Kind:   event.Kind(r.u8("event kind")),
			Name:   r.str("event name"),
			Source: r.str("event source"),
			At:     sim.Time(r.varint("event at")),
			Seq:    r.uvar("event seq"),
		}
		n := r.uvar("event value count")
		// A value takes ≥ 9 bytes; reject counts the payload cannot hold
		// before allocating.
		if r.err == nil && n > uint64(len(r.b))/9 {
			r.fail("event value count")
		}
		var e *event.Event
		if r.err == nil && n == 1 {
			// Most observations carry one value: the event and its value
			// are one allocation.
			ev := &eventWithValue{e: hdr}
			ev.e.Values = ev.v[:]
			e = &ev.e
		} else {
			if r.err == nil && n > 0 {
				hdr.Values = make([]event.Value, n)
			}
			e = new(event.Event)
			*e = hdr
		}
		for i := range e.Values {
			e.Values[i].Name = r.str("value name")
			e.Values[i].V = r.f64("value")
		}
		m.Event = e
	}
	if flags&flagError != 0 {
		rep := &ErrorReport{}
		rep.Detector = r.str("error detector")
		rep.Observable = r.str("error observable")
		rep.Expected = r.f64("error expected")
		rep.Actual = r.f64("error actual")
		rep.Consecutive = int(r.uvar("error consecutive"))
		rep.At = sim.Time(r.varint("error at"))
		rep.Detail = r.str("error detail")
		m.Error = rep
	}
	if flags&flagSnapshot != 0 {
		s := &Snapshot{}
		s.Blocks = int(r.uvar("snapshot blocks"))
		s.Events = r.uvar("snapshot events")
		s.Dropped = r.uvar("snapshot dropped")
		n := r.uvar("snapshot window count")
		// A window takes ≥ 3 bytes; reject counts the payload cannot hold
		// before allocating.
		if r.err == nil && n > uint64(len(r.b))/3 {
			r.fail("snapshot window count")
		}
		if r.err == nil && n > 0 {
			s.Windows = make([]SpectrumWindow, n)
			for i := range s.Windows {
				w := &s.Windows[i]
				w.Seq = r.uvar("window seq")
				w.At = sim.Time(r.varint("window at"))
				nw := r.uvar("window word count")
				// 8 bytes per word; length-check before allocation.
				if r.err == nil && nw > uint64(len(r.b))/8 {
					r.fail("window word count")
				}
				if r.err != nil {
					break
				}
				if nw > 0 {
					w.Words = make([]uint64, nw)
					for j := range w.Words {
						if len(r.b) < 8 {
							r.fail("window words")
							break
						}
						w.Words[j] = binary.LittleEndian.Uint64(r.b)
						r.b = r.b[8:]
					}
				}
			}
		}
		if r.err == nil {
			m.Snapshot = s
		}
	}
	if flags&flagCheckpoint != 0 {
		cp := &Checkpoint{}
		cp.Plane = r.str("checkpoint plane")
		cp.Shard = int(r.uvar("checkpoint shard"))
		cp.Seq = r.uvar("checkpoint seq")
		cp.Final = r.u8("checkpoint final") != 0
		cp.Profile = r.str("checkpoint profile")
		cp.At = sim.Time(r.varint("checkpoint at"))
		n := r.uvar("checkpoint counter count")
		// A counter takes ≥ 2 bytes; length-check before allocation, and so
		// on for every variable-count list below.
		if r.err == nil && n > uint64(len(r.b))/2 {
			r.fail("checkpoint counter count")
		}
		if r.err == nil && n > 0 {
			cp.Counters = make([]CheckpointCounter, n)
			for i := range cp.Counters {
				cp.Counters[i].Name = r.str("counter name")
				cp.Counters[i].V = r.uvar("counter value")
			}
		}
		n = r.uvar("checkpoint var count")
		if r.err == nil && n > uint64(len(r.b))/9 {
			r.fail("checkpoint var count")
		}
		if r.err == nil && n > 0 {
			cp.Vars = make([]CheckpointVar, n)
			for i := range cp.Vars {
				cp.Vars[i].Name = r.str("var name")
				cp.Vars[i].V = r.f64("var value")
			}
		}
		n = r.uvar("checkpoint state count")
		if r.err == nil && n > uint64(len(r.b))/2 {
			r.fail("checkpoint state count")
		}
		if r.err == nil && n > 0 {
			cp.States = make([]CheckpointState, n)
			for i := range cp.States {
				cp.States[i].Name = r.str("state name")
				cp.States[i].V = r.str("state value")
			}
		}
		n = r.uvar("checkpoint obs count")
		// An observable takes ≥ 12 bytes (name len, consecutive, bits, value,
		// lastSeen).
		if r.err == nil && n > uint64(len(r.b))/12 {
			r.fail("checkpoint obs count")
		}
		if r.err == nil && n > 0 {
			cp.Obs = make([]CheckpointObs, n)
			for i := range cp.Obs {
				o := &cp.Obs[i]
				o.Name = r.str("obs name")
				o.Consecutive = int(r.uvar("obs consecutive"))
				bits := r.u8("obs bits")
				o.InError = bits&1 != 0
				o.EverSeen = bits&2 != 0
				o.Silenced = bits&4 != 0
				o.LastValue = r.f64("obs value")
				o.LastSeen = sim.Time(r.varint("obs last seen"))
			}
		}
		cp.Blocks = int(r.uvar("checkpoint blocks"))
		cp.NFail = int(r.uvar("checkpoint nfail"))
		cp.NPass = int(r.uvar("checkpoint npass"))
		n = r.uvar("checkpoint cell count")
		if r.err == nil && n > uint64(len(r.b))/3 {
			r.fail("checkpoint cell count")
		}
		if r.err == nil && n > 0 {
			cp.Cells = make([]CheckpointCell, n)
			for i := range cp.Cells {
				cp.Cells[i].Block = uint32(r.uvar("cell block"))
				cp.Cells[i].Fail = uint32(r.uvar("cell fail"))
				cp.Cells[i].Pass = uint32(r.uvar("cell pass"))
			}
		}
		n = r.uvar("checkpoint device count")
		if r.err == nil && n > uint64(len(r.b))/3 {
			r.fail("checkpoint device count")
		}
		if r.err == nil && n > 0 {
			cp.Devices = make([]CheckpointDevice, n)
			for i := range cp.Devices {
				d := &cp.Devices[i]
				d.ID = r.str("device id")
				d.At = sim.Time(r.varint("device at"))
				k := r.uvar("device stat count")
				if r.err == nil && k > uint64(len(r.b)) {
					r.fail("device stat count")
				}
				if r.err != nil {
					break
				}
				if k > 0 {
					d.Stats = make([]uint64, k)
					for j := range d.Stats {
						d.Stats[j] = r.uvar("device stat")
					}
				}
			}
		}
		n = r.uvar("checkpoint part count")
		// A partition takes ≥ 4 bytes (id len, nfail, npass, cell count);
		// length-check before allocation.
		if r.err == nil && n > uint64(len(r.b))/4 {
			r.fail("checkpoint part count")
		}
		if r.err == nil && n > 0 {
			cp.Parts = make([]CheckpointPart, n)
			for i := range cp.Parts {
				p := &cp.Parts[i]
				p.ID = r.str("part id")
				p.NFail = int(r.uvar("part nfail"))
				p.NPass = int(r.uvar("part npass"))
				k := r.uvar("part cell count")
				if r.err == nil && k > uint64(len(r.b))/3 {
					r.fail("part cell count")
				}
				if r.err != nil {
					break
				}
				if k > 0 {
					p.Cells = make([]CheckpointCell, k)
					for j := range p.Cells {
						p.Cells[j].Block = uint32(r.uvar("part cell block"))
						p.Cells[j].Fail = uint32(r.uvar("part cell fail"))
						p.Cells[j].Pass = uint32(r.uvar("part cell pass"))
					}
				}
			}
		}
		if r.err == nil {
			m.Checkpoint = cp
		}
	}
	if flags&flagShed != 0 {
		sh := &ShedRecord{}
		sh.Observations = r.uvar("shed observations")
		sh.Heartbeats = r.uvar("shed heartbeats")
		if r.err == nil {
			m.Shed = sh
		}
	}
	if flags&flagRollup != 0 {
		ro := &RollupDelta{}
		ro.Seq = r.uvar("rollup seq")
		ro.Devices = r.varint("rollup devices")
		n := r.uvar("rollup counter count")
		// A counter takes ≥ 2 bytes; length-check before allocation.
		if r.err == nil && n > uint64(len(r.b))/2 {
			r.fail("rollup counter count")
		}
		if r.err == nil && n > 0 {
			ro.Counters = make([]RollupCounter, n)
			for i := range ro.Counters {
				ro.Counters[i].Name = r.str("rollup counter name")
				ro.Counters[i].V = r.varint("rollup counter value")
			}
		}
		if r.err == nil {
			m.Rollup = ro
		}
	}
	if flags&flagHandoff != 0 {
		h := &HandoffRecord{}
		h.From = r.str("handoff from")
		h.To = r.str("handoff to")
		h.Pos = r.uvar("handoff pos")
		h.Range = int(r.uvar("handoff range"))
		h.Of = int(r.uvar("handoff of"))
		h.Dir = r.str("handoff dir")
		h.Out = r.u8("handoff out") != 0
		if r.err == nil {
			m.Handoff = h
		}
	}
	if flags&flagSpectrumDelta != 0 {
		d := &SpectrumDelta{}
		d.Seq = r.uvar("delta seq")
		d.Blocks = int(r.uvar("delta blocks"))
		n := r.uvar("delta word count")
		// A pair takes ≥ 2 bytes (uvar index + var word); length-check
		// before allocation.
		if r.err == nil && n > uint64(len(r.b))/2 {
			r.fail("delta word count")
		}
		if r.err == nil && n > 0 {
			d.Index = make([]uint32, n)
			d.Words = make([]uint64, n)
			for i := range d.Index {
				idx := r.uvar("delta word index")
				// Indices are strictly ascending by construction; anything
				// else is a malformed or hostile frame, rejected before the
				// fold layer ever sees it.
				if r.err == nil && (idx > math.MaxUint32 || (i > 0 && uint32(idx) <= d.Index[i-1])) {
					r.fail("delta word index order")
				}
				d.Index[i] = uint32(idx)
				d.Words[i] = uint64(r.varint("delta word"))
			}
		}
		if r.err == nil {
			m.Delta = d
		}
	}
	if flags&flagTrace != 0 {
		tc := &TraceContext{}
		tc.TraceID = r.uvar("trace id")
		tc.Parent = r.uvar("trace parent")
		if r.err == nil {
			m.Trace = tc
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: binary: %d trailing bytes after message", len(r.b))
	}
	return nil
}
