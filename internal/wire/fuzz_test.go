package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"

	"trader/internal/event"
)

// Property: Decode never panics and never returns a frame on arbitrary
// byte streams — it either errors or reports EOF. (The monitor must survive
// a corrupted or malicious SUO connection.)
func TestPropertyDecodeRobustOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		dec := NewDecoder(bytes.NewReader(raw))
		for i := 0; i < 10; i++ {
			_, err := dec.Decode()
			if err != nil {
				return true // clean rejection
			}
		}
		return true // decoding garbage into valid frames is fine too (JSON luck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a valid frame followed by garbage yields exactly the frame then
// an error/EOF — corruption never corrupts already-delivered frames.
func TestPropertyValidThenGarbage(t *testing.T) {
	f := func(garbage []byte, suo string) bool {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(Message{Type: TypeHello, SUO: suo}); err != nil {
			return false
		}
		buf.Write(garbage)
		dec := NewDecoder(&buf)
		m, err := dec.Decode()
		if err != nil || m.Type != TypeHello || m.SUO != suo {
			return false
		}
		// Whatever follows: no panic.
		for i := 0; i < 5; i++ {
			if _, err := dec.Decode(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode is the native fuzz target (the testing/quick properties above
// are its fixed-budget cousins): arbitrary byte streams through the framing
// layer and both payload codecs must be decoded or cleanly rejected, never
// panic, hang, or over-allocate — the daemon shares a process with a whole
// fleet of other connections. Binary streams are additionally walked frame
// by frame through both binary decoders, which must agree on every payload. CI's smoke job runs this for 10s on every
// push (`make fuzz`); `make fuzz FUZZTIME=10m` digs deeper.
func FuzzDecode(f *testing.F) {
	// Seed the corpus with well-formed frames in both codecs — the mutator
	// works best from valid structure — plus truncations and raw noise.
	ev := event.Event{Kind: event.Output, Name: "out", Source: "suo", At: 42, Seq: 7}.
		With("x", 1.5).With("q", 0.25)
	rep := ErrorReport{Detector: "cmp", Observable: "x", Expected: 1, Actual: 2, Consecutive: 3, At: 42}
	snap := Snapshot{Blocks: 130, Events: 9, Dropped: 1, Windows: []SpectrumWindow{
		{Seq: 1, At: 50, Words: []uint64{0xdeadbeef, 0, 0x8000000000000000}},
		{Seq: 2},
	}}
	msgs := []Message{
		{Type: TypeHello, SUO: "fuzz-dev", Codec: CodecBinary},
		{Type: TypeOutput, SUO: "fuzz-dev", Event: &ev, At: 42},
		{Type: TypeError, SUO: "fuzz-dev", Error: &rep, At: 42},
		{Type: TypeHeartbeat, SUO: "fuzz-dev", At: 99},
		{Type: TypeControl, SUO: "fuzz-dev", Control: CtrlRestart, Target: "restart", At: 99},
		{Type: TypeControl, SUO: "fuzz-dev", Control: CtrlRestart, Target: "restart", At: 108,
			Trace: &TraceContext{TraceID: 0xdeadbeefcafe0123, Parent: 7}},
		Ack("fuzz-dev", CtrlRestart, 100),
		{Type: TypeSnapshotReq, SUO: "fuzz-dev", At: 101},
		{Type: TypeSnapshot, SUO: "fuzz-dev", Target: "fail", At: 102, Snapshot: &snap},
		{Type: TypeHello, SUO: "fuzz-dev", Codec: CodecBinary, Credits: 4096},
		{Type: TypeCredit, SUO: "fuzz-dev", Credits: 1 << 31},
		{Type: TypeHeartbeat, SUO: "fuzz-dev", At: 103, Credits: 7},
		{Type: TypeShed, SUO: "fuzz-dev", At: 104, Shed: &ShedRecord{Observations: 1 << 40, Heartbeats: 3}},
		{Type: TypeHello, SUO: "fuzz-edge", Codec: CodecBinary, Role: RoleEdge,
			Handoff: &HandoffRecord{From: "fuzz-edge", Range: 1, Of: 2, Dir: "/tmp/j"}},
		{Type: TypeRollup, SUO: "fuzz-edge", Rollup: &RollupDelta{Seq: 9, Devices: 1 << 20,
			Counters: []RollupCounter{{Name: "dispatched", V: -1 << 40}, {Name: "reports", V: 3}}}},
		{Type: TypeHandoff, SUO: "fuzz-dev", At: 105,
			Handoff:    &HandoffRecord{From: "fuzz-edge", To: "other", Pos: 1 << 33},
			Checkpoint: &Checkpoint{Plane: PlaneDevice, Counters: []CheckpointCounter{{Name: "c", V: 1}}}},
		{Type: TypeSpectrumDelta, SUO: "fuzz-dev", Target: "fail", At: 106,
			Delta: &SpectrumDelta{Seq: 5, Blocks: 60000,
				Index: []uint32{0, 7, 937}, Words: []uint64{1, 0xdeadbeef, 1 << 63}}},
		{Type: TypeCheckpoint, At: 107, Checkpoint: &Checkpoint{Plane: "diagnosis",
			Parts: []CheckpointPart{{ID: "fuzz-dev", NFail: 1,
				Cells: []CheckpointCell{{Block: 937, Fail: 1, Pass: 2}}}}}},
	}
	for _, codec := range []Codec{JSON, Binary} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.SetCodec(codec)
		for _, m := range msgs {
			if err := enc.Encode(m); err != nil {
				f.Fatal(err)
			}
		}
		raw := buf.Bytes()
		f.Add(raw, codec.Name() == CodecBinary)
		f.Add(raw[:len(raw)/2], codec.Name() == CodecBinary)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff}, true)

	f.Fuzz(func(t *testing.T, raw []byte, useBinary bool) {
		dec := NewDecoder(bytes.NewReader(raw))
		if useBinary {
			dec.SetCodec(Binary)
		}
		// A stream either yields frames or fails; each Decode consumes
		// input, so the loop is bounded by the input length.
		for i := 0; i < 16; i++ {
			if _, err := dec.Decode(); err != nil {
				break
			}
		}
		if !useBinary {
			return
		}
		// The journal reader's interning decoder must accept, reject and
		// decode every binary payload exactly as Binary.Unmarshal does.
		var in BinaryInterner
		for rest := raw; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			rest = rest[4:]
			if n > MaxFrame || int(n) > len(rest) {
				return
			}
			assertInternerAgrees(t, &in, rest[:n])
			rest = rest[n:]
		}
	})
}

// A header announcing a huge frame must be rejected before allocation.
func TestHugeFrameHeaderRejectedEarly(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xffffffff)
	dec := NewDecoder(bytes.NewReader(hdr[:]))
	if _, err := dec.Decode(); err == nil || err == io.EOF {
		t.Fatalf("err = %v, want explicit rejection", err)
	}
}
