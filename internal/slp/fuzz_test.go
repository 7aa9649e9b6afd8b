package slp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// fuzzSeedMessages is one instance of every message type, so the fuzzer
// starts from well-formed frames of each shape.
func fuzzSeedMessages() []Message {
	return []Message{
		Hello{Version: Version, Name: "crawler", Password: "pw", Observer: true},
		Welcome{AvatarID: 42, Land: "Dance Island", Size: 256, SimTime: 100, Warp: 600, Spawn: geom.V2(92, 128)},
		Error{Code: ErrBadRequest, Message: "nope"},
		Move{Pos: geom.V(1, 2, 3)},
		Chat{Text: "hello"},
		ChatEvent{From: 7, Pos: geom.V2(10, 10), Text: "hi"},
		MapRequest{},
		MapReply{SimTime: 50, Entries: []MapEntry{{ID: 1, Pos: geom.V(10, 20, 4)}, {ID: 2, Pos: geom.V(200, 100, 0)}}},
		Subscribe{Tau: 10, Aligned: true, Radius: 48, Delta: true},
		ObjectCreate{Kind: ObjectSensor, Pos: geom.V2(128, 128), Range: 96, Period: 10, Collector: "http://x/flush"},
		ObjectReply{ObjectID: 3, ExpiresAt: 7200},
		Ping{Seq: 1},
		Pong{Seq: 1, SimTime: 5},
		Logout{},
		MapReplyFull{SimTime: 60, Entries: []FullEntry{{ID: 9, Pos: geom.V(1.5, 2.25, 0.5), Seated: true}}},
		DirectoryRequest{},
		Directory{Estate: "Paper Archipelago", Rows: 1, Cols: 3, SimTime: 0, Warp: 600, Duration: 86400, Held: true,
			Regions: []DirRegion{{Name: "Apfel Land", Addr: "127.0.0.1:7600", Origin: geom.V2(0, 0), Size: 256}}},
		ClockStart{},
		ClockStarted{SimTime: 10},
		MapDelta{SimTime: 70, Seq: 1, Keyframe: true,
			Updated: []MapEntry{{ID: 1, Pos: geom.V(10, 20, 4)}, {ID: 2, Pos: geom.V(30, 40, 0)}}},
		MapDelta{SimTime: 80, Seq: 2,
			Updated: []MapEntry{{ID: 2, Pos: geom.V(31, 41, 0)}},
			Removed: []trace.AvatarID{1}},
	}
}

// reservedTypePayloads returns one payload per reserved message code,
// shaped like the retired inter-server handshake, transfer and ack.
func reservedTypePayloads() [][]byte {
	return [][]byte{
		{byte(TypeMapReplyFull) + 1, Version, 0, 0, 0, 2, 0, 2, 'p', 'w'},
		{byte(TypeMapReplyFull) + 2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 4, 1, 2, 3, 4},
		{byte(TypeMapReplyFull) + 3, 1},
	}
}

// FuzzUnmarshal hammers the payload decoder: it must never panic, must
// type every failure as *DecodeError, and must produce re-encodable
// messages for every payload it accepts.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		payload, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Adversarial seeds: truncations, bogus types, huge claimed counts.
	f.Add([]byte{})
	f.Add([]byte{byte(TypeMapReply), 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Add([]byte{byte(TypeHello), 2, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0xEE, 0xDE, 0xAD})
	// A map delta whose varint updated count claims 65535 entries, and
	// one whose removed count overstates the remaining payload
	// (layout: type, SimTime varint, Seq varint, keyframe byte, counts).
	f.Add([]byte{byte(TypeMapDelta), 1, 2, 1, 0xFF, 0xFF, 0x03})
	f.Add([]byte{byte(TypeMapDelta), 1, 2, 0, 0, 0xFF, 0xFF, 0x03})
	// The reserved codes of the retired handoff messages, in their old
	// layouts: they must fail as typed decode errors.
	for _, p := range reservedTypePayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Unmarshal(payload)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode failure is not a DecodeError: %v", err)
			}
			return
		}
		// Whatever decoded must re-encode (the decoder enforces the same
		// bounds the encoder does), and re-decode as the same type.
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message %T does not re-marshal: %v", m, err)
		}
		m2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled %T does not decode: %v", m, err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("round trip changed type %s -> %s", m.Type(), m2.Type())
		}
	})
}

// FuzzReadMessage hammers the framing layer: arbitrary byte streams must
// produce either a message or a typed error, never a panic or a hang.
func FuzzReadMessage(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0})          // zero-length frame
	f.Add([]byte{0xFF, 0xFF, 1}) // frame longer than the stream
	f.Add([]byte{0x7F, 0xFF})    // header only
	for _, p := range reservedTypePayloads() {
		var hdr [2]byte
		binary.BigEndian.PutUint16(hdr[:], uint16(len(p)))
		f.Add(append(hdr[:], p...))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		deadline := time.Now().Add(2 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("framing loop did not terminate")
			}
			if _, err := ReadMessage(r); err != nil {
				return // EOF or a decode error ends the stream
			}
		}
	})
}
