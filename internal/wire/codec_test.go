package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"trader/internal/event"
	"trader/internal/sim"
)

// sampleMessages covers every frame shape the protocol produces.
func sampleMessages() []Message {
	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123, Seq: 7}
	ev = ev.With("quality", 0.87).With("fps", 50)
	rep := ErrorReport{Detector: "comparator", Observable: "volume", Expected: 10,
		Actual: 3, Consecutive: 4, At: 99, Detail: "drift"}
	snap := Snapshot{Blocks: 130, Events: 12, Dropped: 3, Windows: []SpectrumWindow{
		{Seq: 1, At: 100, Words: []uint64{0x1, 0xffffffffffffffff, 0x3}},
		{Seq: 2, At: 200, Words: []uint64{0, 0x80, 0}},
		{Seq: 3}, // open window, no coverage yet
	}}
	return []Message{
		{Type: TypeHello, SUO: "tv-0001", Codec: CodecBinary},
		{Type: TypeInput, SUO: "tv", Event: &event.Event{Kind: event.Input, Name: "key", At: -5}, At: -5},
		{Type: TypeOutput, SUO: "tv", Event: &ev, At: 123},
		{Type: TypeState, Event: &event.Event{Kind: event.State, Name: "mode"}},
		{Type: TypeControl, Control: CtrlRecover, Target: "teletext", At: 42},
		{Type: TypeControl, SUO: "tv", Control: CtrlQuarantine, Target: "quarantine", At: 7},
		{Type: TypeError, Error: &rep, At: 99},
		{Type: TypeHeartbeat, At: 1000},
		{Type: TypeSpecInfo},
		Ack("tv-0001", CtrlRestart, 1234),
		{Type: TypeSnapshotReq, SUO: "tv-0001", At: 500},
		{Type: TypeSnapshot, SUO: "tv-0001", At: 600, Snapshot: &snap},
		{Type: TypeSnapshot, SUO: "tv-0001", Target: "fail", At: 700,
			Snapshot: &Snapshot{Blocks: 64, Windows: []SpectrumWindow{{Seq: 9, At: 650, Words: []uint64{42}}}}},
		{Type: TypeHello, SUO: "tv-0001", Codec: CodecBinary, Durability: DurDispatch, Credits: 256},
		{Type: TypeCredit, SUO: "tv-0001", Credits: 128},
		{Type: TypeHeartbeat, SUO: "tv-0001", At: 2000, Credits: 64},
		{Type: TypeShed, SUO: "tv-0001", At: 2100, Shed: &ShedRecord{Observations: 17, Heartbeats: 2}},
		{Type: TypeShed, SUO: "tv-0001", Shed: &ShedRecord{}},
		{Type: TypeHello, SUO: "edge-0", Codec: CodecBinary, Role: RoleEdge,
			Handoff: &HandoffRecord{From: "edge-0", Range: 0, Of: 2, Dir: "/tmp/edge0"}},
		{Type: TypeRollup, SUO: "edge-0", Rollup: &RollupDelta{Seq: 3, Devices: 16,
			Counters: []RollupCounter{{Name: "dispatched", V: 120}, {Name: "comparisons", V: -7}}}},
		{Type: TypeRollup, SUO: "edge-1", Rollup: &RollupDelta{}}, // empty resume baseline
		{Type: TypeHandoff, SUO: "dev-000007", At: 910,
			Handoff: &HandoffRecord{From: "edge-0", To: "edge-1", Pos: 4321},
			Checkpoint: &Checkpoint{Plane: PlaneDevice, At: 910,
				Counters: []CheckpointCounter{{Name: "comparisons", V: 12}}}},
		{Type: TypeHandoff, SUO: "dev-000007", Handoff: &HandoffRecord{From: "edge-0", Out: true}},
		{Type: TypeSpectrumDelta, SUO: "tv-0001", At: 3000, Delta: &SpectrumDelta{
			Seq: 12, Blocks: 130, Index: []uint32{0, 1, 2}, Words: []uint64{0x1, 0xffffffffffffffff, 0x3}}},
		{Type: TypeSpectrumDelta, SUO: "tv-0001", Target: "fail", At: 3100,
			Delta: &SpectrumDelta{Seq: 13, Blocks: 130}}, // empty closed window
		{Type: TypeControl, SUO: "tv-0001", Control: CtrlRestart, Target: "restart", At: 5000,
			Trace: &TraceContext{TraceID: 0xdeadbeefcafe0123, Parent: 7}},
		{Type: TypeRollup, SUO: "edge-0", Rollup: &RollupDelta{Seq: 4, Devices: 16},
			Trace: &TraceContext{TraceID: 1}}, // exemplar trace, no parent
		{Type: TypeAck, SUO: "tv-0001", Control: CtrlRestart, At: 5100,
			Trace: &TraceContext{TraceID: 0xdeadbeefcafe0123, Parent: 9}}, // device echo of control trace
		{Type: TypeCheckpoint, At: 4000, Checkpoint: &Checkpoint{Plane: "diagnosis", At: 4000,
			Counters: []CheckpointCounter{{Name: "nfail", V: 2}},
			Parts: []CheckpointPart{
				{ID: "tv-0001", NFail: 2, NPass: 1, Cells: []CheckpointCell{{Block: 7, Fail: 2, Pass: 1}, {Block: 64, Fail: 1}}},
				{ID: "tv-0002"}, // partition with no evidence yet
			}}},
	}
}

func TestCodecsRoundTripAllShapes(t *testing.T) {
	for _, codec := range []Codec{JSON, Binary} {
		for _, in := range sampleMessages() {
			payload, err := codec.Append(nil, in)
			if err != nil {
				t.Fatalf("%s: append %+v: %v", codec.Name(), in, err)
			}
			var out Message
			if err := codec.Unmarshal(payload, &out); err != nil {
				t.Fatalf("%s: unmarshal %+v: %v", codec.Name(), in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s: round trip mangled:\n in: %+v\nout: %+v", codec.Name(), in, out)
			}
		}
	}
}

// Property: both codecs agree on arbitrary event frames, bit-exactly.
func TestPropertyCodecsAgree(t *testing.T) {
	f := func(suo, name, source string, at int64, vals []float64, kindRaw, seq uint8) bool {
		ev := event.Event{Kind: event.Kind(kindRaw % 3), Name: name, Source: source,
			At: sim.Time(at), Seq: uint64(seq)}
		for i, v := range vals {
			if i > 8 {
				break
			}
			ev.Values = append(ev.Values, event.Value{Name: string(rune('a' + i%26)), V: v})
		}
		in := Message{Type: TypeOutput, SUO: suo, Event: &ev, At: sim.Time(at)}
		var outs [2]Message
		for i, codec := range []Codec{JSON, Binary} {
			payload, err := codec.Append(nil, in)
			if err != nil {
				return false
			}
			if err := codec.Unmarshal(payload, &outs[i]); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(outs[0], outs[1]) && reflect.DeepEqual(outs[0], in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// assertInternerAgrees is the differential check between the two binary
// decoders: in must accept exactly the payloads Binary.Unmarshal accepts,
// reject the rest with the same error, and decode to the same Message.
func assertInternerAgrees(t testing.TB, in *BinaryInterner, payload []byte) {
	t.Helper()
	var want, got Message
	werr, gerr := Binary.Unmarshal(payload, &want), in.Unmarshal(payload, &got)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("payload %x: Binary.Unmarshal: %v, BinaryInterner: %v", payload, werr, gerr)
		}
		return
	}
	if reflect.DeepEqual(want, got) {
		return
	}
	// A NaN value is not DeepEqual to itself; its encoding compares the bits.
	wb, _ := Binary.Append(nil, want)
	gb, _ := Binary.Append(nil, got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("payload %x decodes differently:\n  Binary: %+v\ninterner: %+v", payload, want, got)
	}
}

// Every frame shape, and every truncation and one-byte corruption of it,
// through one long-lived interner: it and Binary.Unmarshal must agree.
func TestInternerAgreesWithBinary(t *testing.T) {
	var in BinaryInterner
	for round := 0; round < 2; round++ { // the second round decodes from a warm table
		for _, m := range sampleMessages() {
			payload, err := Binary.Append(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			assertInternerAgrees(t, &in, payload)
			for cut := 0; cut < len(payload); cut++ {
				assertInternerAgrees(t, &in, payload[:cut])
				bad := append([]byte(nil), payload...)
				bad[cut] ^= 0x41
				assertInternerAgrees(t, &in, bad)
			}
			var out Message
			if err := in.Unmarshal(payload, &out); err != nil || !reflect.DeepEqual(m, out) {
				t.Fatalf("interner round trip mangled (err %v):\n in: %+v\nout: %+v", err, m, out)
			}
		}
	}
}

// Repeated strings decode to one shared copy — the point of the interner.
func TestInternerSharesRepeatedStrings(t *testing.T) {
	ev := event.Event{Kind: event.Output, Name: "out", Source: "tv-0001"}.With("x", 1)
	payload, err := Binary.Append(nil, Message{Type: TypeOutput, SUO: "tv-0001", Event: &ev})
	if err != nil {
		t.Fatal(err)
	}
	var in BinaryInterner
	var a, b Message
	if err := in.Unmarshal(payload, &a); err != nil {
		t.Fatal(err)
	}
	if err := in.Unmarshal(payload, &b); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.SUO) != unsafe.StringData(b.SUO) || unsafe.StringData(a.SUO) != unsafe.StringData(b.Event.Source) {
		t.Error("device ID decoded into separate copies")
	}
	if unsafe.StringData(a.Event.Values[0].Name) != unsafe.StringData(b.Event.Values[0].Name) {
		t.Error("value name decoded into separate copies")
	}
}

// The intern table is bounded: more distinct IDs than it holds, or strings
// too long to be names, decode correctly without growing it past its cap.
func TestInternerTableIsBounded(t *testing.T) {
	var in BinaryInterner
	decode := func(suo string) {
		t.Helper()
		payload, err := Binary.Append(nil, Message{Type: TypeHeartbeat, SUO: suo})
		if err != nil {
			t.Fatal(err)
		}
		var m Message
		if err := in.Unmarshal(payload, &m); err != nil || m.SUO != suo {
			t.Fatalf("decoded SUO %q (err %v), want %q", m.SUO, err, suo)
		}
		if len(in.tab) > internMaxEntries {
			t.Fatalf("intern table holds %d entries, cap %d", len(in.tab), internMaxEntries)
		}
	}
	for i := 0; i < internMaxEntries+internMaxEntries/2; i++ {
		decode(fmt.Sprintf("dev-%07d", i))
	}
	decode("dev-0000000") // interned before the table started over
	n := len(in.tab)
	decode(strings.Repeat("x", internMaxLen))
	if len(in.tab) != n+1 {
		t.Errorf("a %d-byte string was not interned", internMaxLen)
	}
	decode(strings.Repeat("y", internMaxLen+1))
	if len(in.tab) != n+1 {
		t.Errorf("a %d-byte string was interned", internMaxLen+1)
	}
}

// Strings that share a last-hit cache slot evict each other but still
// decode to themselves, and to one shared copy each.
func TestInternerHotSlotCollisions(t *testing.T) {
	var in BinaryInterner
	// Same length, same first and last byte: the same slot.
	ids := []string{"dev-0001", "dev-0011", "dev-0101"}
	first := map[string]string{}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			s := in.intern([]byte(id))
			if s != id {
				t.Fatalf("intern(%q) = %q", id, s)
			}
			if p, ok := first[id]; ok && unsafe.StringData(p) != unsafe.StringData(s) {
				t.Fatalf("intern(%q) handed out a second copy", id)
			}
			first[id] = s
		}
	}
}

// Allocation gate for the journal's decode: once its strings are interned,
// a one-value observation costs exactly one allocation — its Event and its
// Value together. Everything else is the caller's Message or a table hit.
func TestInternerOneValueObservationAllocatesOnce(t *testing.T) {
	ev := event.Event{Kind: event.Output, Name: "out", Source: "dev-000042", At: 7, Seq: 3}.With("x", 1.5)
	payload, err := Binary.Append(nil, Message{Type: TypeOutput, SUO: "dev-000042", Event: &ev, At: 7})
	if err != nil {
		t.Fatal(err)
	}
	var in BinaryInterner
	var m Message
	if err := in.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := in.Unmarshal(payload, &m); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("BinaryInterner.Unmarshal allocates %.2f times per one-value observation, want exactly 1", got)
	}
	if !reflect.DeepEqual(*m.Event, ev) {
		t.Fatalf("decoded event %+v, want %+v", *m.Event, ev)
	}
}

// Property: binary Unmarshal never panics on arbitrary payloads — it errors
// or yields a message, exactly like the JSON decoder on garbage.
func TestPropertyBinaryUnmarshalRobustOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		var m Message
		_ = Binary.Unmarshal(raw, &m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsTrailingBytes(t *testing.T) {
	payload, err := Binary.Append(nil, Message{Type: TypeHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := Binary.Unmarshal(append(payload, 0xFF), &m); err == nil {
		t.Fatal("trailing bytes should be rejected")
	}
}

func TestBinaryRejectsHostileValueCount(t *testing.T) {
	// An event frame claiming 2^40 values must be rejected before any
	// allocation happens (the payload cannot possibly hold them).
	ev := event.Event{Name: "e"}
	payload, err := Binary.Append(nil, Message{Type: TypeInput, Event: &ev})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing value-count uvarint (0 → huge).
	payload = append(payload[:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	var m Message
	if err := Binary.Unmarshal(payload, &m); err == nil {
		t.Fatal("hostile value count should be rejected")
	}
}

func TestBinaryRejectsHostileSnapshotCounts(t *testing.T) {
	// A snapshot frame claiming 2^40 windows (or words) must be rejected
	// before any allocation happens.
	base := Message{Type: TypeSnapshot, SUO: "s", Snapshot: &Snapshot{Blocks: 64}}
	payload, err := Binary.Append(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing window-count uvarint (0 → huge).
	hostile := append(payload[:len(payload)-1:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	var m Message
	if err := Binary.Unmarshal(hostile, &m); err == nil {
		t.Fatal("hostile window count should be rejected")
	}
	withWin := Message{Type: TypeSnapshot, SUO: "s",
		Snapshot: &Snapshot{Blocks: 64, Windows: []SpectrumWindow{{Seq: 1, At: 2}}}}
	payload, err = Binary.Append(nil, withWin)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing word-count uvarint (0 → huge).
	hostile = append(payload[:len(payload)-1:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if err := Binary.Unmarshal(hostile, &m); err == nil {
		t.Fatal("hostile word count should be rejected")
	}
}

func TestCodecByName(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		wantOK bool
	}{
		{"json", CodecJSON, true},
		{"binary", CodecBinary, true},
		{"", CodecJSON, false},
		{"protobuf", CodecJSON, false},
	}
	for _, c := range cases {
		got, ok := CodecByName(c.name)
		if got.Name() != c.want || ok != c.wantOK {
			t.Errorf("CodecByName(%q) = %s, %v; want %s, %v", c.name, got.Name(), ok, c.want, c.wantOK)
		}
	}
}

// TestHandshake drives the one client handshake against scripted server
// halves over a pipe: what the client asks for, what the server grants, and
// every way the exchange is refused.
func TestHandshake(t *testing.T) {
	// accept is the server half most rows share: read the Hello, let the row
	// rewrite what the reply will echo (a granting server overwrites the
	// request fields before ReplyHello), reply. It returns the Hello as read.
	accept := func(rewrite func(*Message)) func(*Conn) (Message, error) {
		return func(server *Conn) (Message, error) {
			hello, err := server.ReadHello()
			if err != nil {
				return hello, err
			}
			seen := hello
			if rewrite != nil {
				rewrite(&hello)
			}
			_, err = server.ReplyHello(hello)
			return seen, err
		}
	}
	claim := HandoffRecord{From: "edge-0", Range: 1, Of: 2, Dir: "/tmp/e0"}
	rows := []struct {
		name    string
		hello   Message
		serve   func(*Conn) (Message, error)
		wantErr string  // substring of the handshake error; empty: it succeeds
		want    Message // the reply's granted fields
	}{
		{name: "plain device granted binary",
			hello: Message{SUO: "tv-42", Codec: CodecBinary}, serve: accept(nil),
			want: Message{Codec: CodecBinary, Durability: DurFsync}},
		{name: "unknown codec downgraded to json",
			hello: Message{SUO: "tv", Codec: "msgpack"}, serve: accept(nil),
			want: Message{Codec: CodecJSON, Durability: DurFsync}},
		{name: "no codec requested means json",
			hello: Message{SUO: "tv"}, serve: accept(nil),
			want: Message{Codec: CodecJSON, Durability: DurFsync}},
		{name: "dispatch durability granted",
			hello: Message{SUO: "tv", Durability: DurDispatch}, serve: accept(nil),
			want: Message{Codec: CodecJSON, Durability: DurDispatch}},
		{name: "dispatch requested fsync granted",
			hello: Message{SUO: "tv", Durability: DurDispatch},
			serve: accept(func(h *Message) { h.Durability = DurFsync }),
			want:  Message{Codec: CodecJSON, Durability: DurFsync}},
		{name: "unknown granted durability reads as fsync",
			hello: Message{SUO: "tv", Durability: DurDispatch},
			serve: accept(func(h *Message) { h.Durability = "platinum" }),
			want:  Message{Codec: CodecJSON, Durability: DurFsync}},
		{name: "credit window surfaced",
			hello: Message{SUO: "tv", Codec: CodecBinary},
			serve: accept(func(h *Message) { h.Credits = 8 }),
			want:  Message{Codec: CodecBinary, Durability: DurFsync, Credits: 8}},
		{name: "edge role and claim echoed",
			hello: Message{SUO: "edge-0", Codec: CodecBinary, Role: RoleEdge, Handoff: &claim},
			serve: accept(nil),
			want:  Message{Codec: CodecBinary, Durability: DurFsync, Role: RoleEdge}},
		{name: "roleless server refused",
			hello:   Message{SUO: "edge-0", Codec: CodecBinary, Role: RoleEdge, Handoff: &claim},
			serve:   accept(func(h *Message) { h.Role = "" }), // a server from before roles existed
			wantErr: "did not grant role"},
		{name: "role nobody asked for refused",
			hello: Message{SUO: "tv"}, serve: accept(func(h *Message) { h.Role = RoleEdge }),
			wantErr: "did not grant role"},
		{name: "rejection carries the detail",
			hello: Message{SUO: "tv-1", Codec: CodecBinary},
			serve: func(server *Conn) (Message, error) {
				hello, err := server.ReadHello()
				if err != nil {
					return hello, err
				}
				return hello, server.RejectHello(hello.SUO, "fleet is full")
			},
			wantErr: "handshake rejected: fleet is full"},
		{name: "non-hello reply refused",
			hello: Message{SUO: "tv"},
			serve: func(server *Conn) (Message, error) {
				hello, err := server.ReadHello()
				if err != nil {
					return hello, err
				}
				return hello, server.Encode(Message{Type: TypeHeartbeat})
			},
			wantErr: `reply has type "heartbeat"`},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			client, server := NewConn(a), NewConn(b)
			type served struct {
				seen Message
				err  error
			}
			done := make(chan served, 1)
			go func() {
				seen, err := row.serve(server)
				done <- served{seen, err}
			}()
			reply, err := client.Handshake(row.hello)
			srv := <-done
			if srv.err != nil {
				t.Fatalf("server side: %v", srv.err)
			}
			// The server sees the request as sent, Type filled in.
			if s := srv.seen; s.Type != TypeHello || s.SUO != row.hello.SUO || s.Codec != row.hello.Codec ||
				s.Durability != row.hello.Durability || s.Role != row.hello.Role {
				t.Fatalf("server saw hello = %+v, client sent %+v", s, row.hello)
			}
			if row.hello.Handoff != nil && (srv.seen.Handoff == nil || *srv.seen.Handoff != *row.hello.Handoff) {
				t.Fatalf("server saw claim %+v, want %+v", srv.seen.Handoff, row.hello.Handoff)
			}
			if row.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("Handshake error = %v, want one containing %q", err, row.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Handshake: %v", err)
			}
			if reply.Type != TypeHello || reply.SUO != row.hello.SUO {
				t.Fatalf("reply = %+v", reply)
			}
			if reply.Codec != row.want.Codec || reply.Durability != row.want.Durability ||
				reply.Credits != row.want.Credits || reply.Role != row.want.Role {
				t.Fatalf("reply grants codec %q durability %q credits %d role %q, want %q %q %d %q",
					reply.Codec, reply.Durability, reply.Credits, reply.Role,
					row.want.Codec, row.want.Durability, row.want.Credits, row.want.Role)
			}
			// Post-handshake traffic flows in the granted codec, both ways.
			if client.Encoder.codec.Name() != row.want.Codec || server.Encoder.codec.Name() != row.want.Codec {
				t.Fatalf("codecs in effect: client %s, server %s, want %s",
					client.Encoder.codec.Name(), server.Encoder.codec.Name(), row.want.Codec)
			}
			ev := event.Event{Kind: event.Input, Name: "key", At: 9}
			go func() { _ = client.SendEvent(row.hello.SUO, ev) }()
			m, err := server.Decode()
			if err != nil || m.Type != TypeInput || m.Event.Name != "key" {
				t.Fatalf("server decode: %+v, %v", m, err)
			}
			go func() { _ = server.Encode(Message{Type: TypeControl, Control: CtrlReset}) }()
			m, err = client.Decode()
			if err != nil || m.Type != TypeControl || m.Control != CtrlReset {
				t.Fatalf("client decode: %+v, %v", m, err)
			}
		})
	}

	// The server half refuses a conversation that does not open with a Hello.
	t.Run("server refuses a non-hello first frame", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		client, server := NewConn(a), NewConn(b)
		go func() { _ = client.Encode(Message{Type: TypeHeartbeat}) }()
		if _, err := server.ReadHello(); err == nil {
			t.Fatal("ReadHello should reject a non-hello first frame")
		}
	})
}

// The decoder must reuse its payload buffer: steady-state binary decoding
// performs no buffer allocation, only the per-message copies (event struct,
// values, strings). The regression bound is deliberately loose for JSON and
// tight for binary.
func TestDecoderReusesPayloadBuffer(t *testing.T) {
	frame := func(codec Codec) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.SetCodec(codec)
		ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123}
		ev = ev.With("q", 0.9).With("fps", 50)
		if err := enc.Encode(Message{Type: TypeOutput, SUO: "tv", Event: &ev, At: 123}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		codec Codec
		max   float64
	}{
		{Binary, 8}, // event, values, 4 strings, reader internals — no payload buffer
		{JSON, 32},  // encoding/json internals dominate, but still no payload buffer growth
	} {
		raw := frame(tc.codec)
		r := bytes.NewReader(raw)
		dec := NewDecoder(r)
		dec.SetCodec(tc.codec)
		avg := testing.AllocsPerRun(200, func() {
			r.Reset(raw)
			if _, err := dec.Decode(); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.max {
			t.Errorf("%s: %.1f allocs/frame, want ≤ %.0f (payload buffer not reused?)", tc.codec.Name(), avg, tc.max)
		}
	}
}

func TestEncoderFrameTooLargeEitherCodec(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	for _, codec := range []Codec{JSON, Binary} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.SetCodec(codec)
		err := enc.Encode(Message{Type: TypeHello, SUO: big})
		if err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%s: want too-large error, got %v", codec.Name(), err)
		}
	}
}

func TestBinaryConnStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.SetCodec(Binary)
	dec := NewDecoder(&buf)
	dec.SetCodec(Binary)
	for i := 0; i < 10; i++ {
		ev := event.Event{Name: "key", Seq: uint64(i)}
		if err := enc.Encode(Message{Type: TypeInput, Event: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if m.Event.Seq != uint64(i) {
			t.Fatalf("frame %d out of order: %+v", i, m)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{"unix:/tmp/t.sock", "unix", "/tmp/t.sock", false},
		{"tcp:127.0.0.1:7700", "tcp", "127.0.0.1:7700", false},
		{"/tmp/t.sock", "unix", "/tmp/t.sock", false},
		{"plainname", "unix", "plainname", false},
		{"udp:1.2.3.4:5", "", "", true},
	}
	for _, c := range cases {
		network, address, err := SplitAddr(c.in)
		if (err != nil) != c.wantErr || network != c.network || address != c.address {
			t.Errorf("SplitAddr(%q) = %q, %q, %v", c.in, network, address, err)
		}
	}
}
