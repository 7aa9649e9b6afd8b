package slp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"slmob/internal/geom"
)

// roundTrip marshals and unmarshals a message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	payload, err := Marshal(m)
	if err != nil {
		t.Fatalf("marshal %T: %v", m, err)
	}
	out, err := Unmarshal(payload)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", m, err)
	}
	return out
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		Hello{Version: 1, Name: "crawler-01", Password: "hunter2"},
		Welcome{AvatarID: 42, Land: "Dance Island", Size: 256, SimTime: 1234, Warp: 60, Spawn: geom.V(92, 128, 0)},
		Error{Code: ErrLandFull, Message: "land full"},
		Move{Pos: geom.V(10.5, 20.25, 30)},
		Chat{Text: "hello everyone :)"},
		ChatEvent{From: 7, Pos: geom.V(1, 2, 3), Text: "hi"},
		MapRequest{},
		Subscribe{Tau: 10},
		ObjectCreate{Kind: ObjectSensor, Pos: geom.V(64, 64, 0), Range: 96, Period: 10, Collector: "http://127.0.0.1:8080/flush"},
		ObjectReply{ObjectID: 9, ExpiresAt: 7200},
		Ping{Seq: 77},
		Pong{Seq: 77, SimTime: 999},
		Logout{},
		MapReplyFull{SimTime: 60, Entries: []FullEntry{{ID: 9, Pos: geom.V(1.5, 2.25, 0.5), Seated: true}}},
		DirectoryRequest{},
		Directory{Estate: "Paper Archipelago", Rows: 1, Cols: 3, SimTime: 7, Warp: 600, Duration: 86400, Held: true,
			Regions: []DirRegion{{Name: "Apfel Land", Addr: "127.0.0.1:7600", Origin: geom.V2(512, 0), Size: 256}}},
		ClockStart{},
		ClockStarted{SimTime: 11},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if got.Type() != m.Type() {
			t.Errorf("%T: type %v != %v", m, got.Type(), m.Type())
		}
	}
}

// TestRoundTripEstateFidelity pins the estate facility's field fidelity:
// observer logins, aligned subscriptions, full-resolution entries, and
// float64 directory placements survive the wire exactly.
func TestRoundTripEstateFidelity(t *testing.T) {
	h := roundTrip(t, Hello{Version: Version, Name: "mon", Observer: true}).(Hello)
	if !h.Observer {
		t.Error("observer flag lost")
	}
	s := roundTrip(t, Subscribe{Tau: 10, Aligned: true}).(Subscribe)
	if s.Tau != 10 || !s.Aligned {
		t.Errorf("subscribe = %+v", s)
	}
	fe := FullEntry{ID: 1<<40 | 3, Pos: geom.V(12.062500000000004, 200.125, 1.75), Seated: true}
	mr := roundTrip(t, MapReplyFull{SimTime: 30, Entries: []FullEntry{fe}}).(MapReplyFull)
	if mr.SimTime != 30 || len(mr.Entries) != 1 || mr.Entries[0] != fe {
		t.Errorf("full map reply = %+v", mr)
	}
	d := roundTrip(t, Directory{Estate: "E", Rows: 4, Cols: 4, SimTime: 5, Warp: 1200.5, Duration: 100, Held: true,
		Regions: []DirRegion{{Name: "R", Addr: "a:1", Origin: geom.V2(768, 256), Size: 256}}}).(Directory)
	if d.Warp != 1200.5 || !d.Held || d.Regions[0].Origin != geom.V2(768, 256) || d.Regions[0].Size != 256 {
		t.Errorf("directory = %+v", d)
	}
}

func TestRoundTripFieldFidelity(t *testing.T) {
	w := roundTrip(t, Welcome{AvatarID: 42, Land: "Isle of View", Size: 256,
		SimTime: -5, Warp: 120, Spawn: geom.V(122, 124, 0)}).(Welcome)
	if w.AvatarID != 42 || w.Land != "Isle of View" || w.SimTime != -5 || w.Warp != 120 {
		t.Errorf("welcome fields lost: %+v", w)
	}
	m := roundTrip(t, Move{Pos: geom.V(1.5, 2.5, 3.5)}).(Move)
	if m.Pos != geom.V(1.5, 2.5, 3.5) {
		t.Errorf("move pos = %v", m.Pos)
	}
}

func TestMapReplyQuantization(t *testing.T) {
	in := MapReply{
		SimTime: 500,
		Entries: []MapEntry{
			{ID: 1, Pos: geom.V(10.4, 200.6, 21)},
			{ID: 2, Pos: geom.V(0, 0, 0)}, // the seated sentinel survives
			{ID: 3, Pos: geom.V(300, -5, 2000)},
		},
	}
	out := roundTrip(t, in).(MapReply)
	if out.SimTime != 500 || len(out.Entries) != 3 {
		t.Fatalf("reply = %+v", out)
	}
	// 1 m quantisation in x/y; 4 m in z.
	if out.Entries[0].Pos.X != 10 || out.Entries[0].Pos.Y != 201 {
		t.Errorf("entry 0 = %v", out.Entries[0].Pos)
	}
	if out.Entries[0].Pos.Z != 20 { // 21/4 = 5.25 -> 5 (round 5.25+0.5=5) -> *4 = 20
		t.Errorf("entry 0 z = %v", out.Entries[0].Pos.Z)
	}
	if !out.Entries[1].Pos.IsZero() {
		t.Errorf("seated sentinel lost: %v", out.Entries[1].Pos)
	}
	// Out-of-range coordinates clamp to the byte range.
	if out.Entries[2].Pos.X != 255 || out.Entries[2].Pos.Y != 0 {
		t.Errorf("clamping failed: %v", out.Entries[2].Pos)
	}
}

// TestReservedTypesDoNotDecode: the codes of the retired inter-server
// handoff messages stay reserved — a frame carrying one is a typed
// decode failure, never a message.
func TestReservedTypesDoNotDecode(t *testing.T) {
	for code := TypeMapReplyFull + 1; code < TypeDirectoryRequest; code++ {
		_, err := Unmarshal([]byte{byte(code), 0, 0, 0, 0})
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("type %d: err = %v, want a DecodeError", code, err)
		}
		if got, want := code.String(), fmt.Sprintf("MsgType(%d)", byte(code)); got != want {
			t.Errorf("type %d name = %q, want %q", code, got, want)
		}
	}
}

func TestChatTooLongRejected(t *testing.T) {
	if _, err := Marshal(Chat{Text: strings.Repeat("x", MaxChatText+1)}); err == nil {
		t.Error("overlong chat accepted by Marshal")
	}
	// The decoder enforces the same bound on crafted wire payloads — the
	// invariant that keeps relayChat's ChatEvent re-encode loss-free.
	over := MaxChatText + 1
	payload := []byte{byte(TypeChat), byte(over >> 8), byte(over)}
	payload = append(payload, strings.Repeat("x", over)...)
	if _, err := Unmarshal(payload); err == nil {
		t.Error("overlong chat accepted by Unmarshal")
	}
	// The bound itself is admissible end to end.
	max, err := Marshal(Chat{Text: strings.Repeat("x", MaxChatText)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(max); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                       // invalid type
		{200},                     // unknown type
		{byte(TypeWelcome), 1, 2}, // truncated
		{byte(TypeHello)},         // truncated
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("garbage %v accepted", c)
		}
	}
	// Trailing bytes must be rejected.
	payload, _ := Marshal(Ping{Seq: 1})
	payload = append(payload, 0xFF)
	if _, err := Unmarshal(payload); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnmarshalNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data) // must not panic, error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{Ping{Seq: 1}, Chat{Text: "two"}, Logout{}}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("read %d: type %v != %v", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestFramingRejectsBadLength(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 1})); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeHello.String() != "hello" || TypeMapReply.String() != "map-reply" {
		t.Error("type names wrong")
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type name empty")
	}
}

func TestMapReplyTooLargeRejected(t *testing.T) {
	reply := MapReply{Entries: make([]MapEntry, 1001)}
	if _, err := Marshal(reply); err == nil {
		t.Error("oversized map reply accepted")
	}
}
