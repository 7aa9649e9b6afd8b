package slp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// The codec is hand-rolled on a byte buffer: message volumes are small
// (one frame per protocol event) but MapReply decoding sits on the
// crawler's hot path, so encoding avoids reflection entirely.

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16)  { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f32(v float64) { e.u32(math.Float32bits(float32(v))) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// uvarint packs an unsigned value as LEB128, the one little-endian
// construct in an otherwise big-endian protocol: MapDelta is the only
// high-rate per-session message, and its avatar IDs and counts are
// small, so varints roughly halve the per-entry wire cost.
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// vec64 packs a position at full float64 resolution (handoffs and
// measurement-grade map entries must not lose precision).
func (e *encoder) vec64(v geom.Vec) {
	e.f64(v.X)
	e.f64(v.Y)
	e.f64(v.Z)
}

func (e *encoder) bytes(b []byte) error {
	if len(b) > 65535 {
		return fmt.Errorf("slp: byte field too long (%d bytes)", len(b))
	}
	e.u16(uint16(len(b)))
	e.buf = append(e.buf, b...)
	return nil
}
func (e *encoder) vec(v geom.Vec) {
	e.f32(v.X)
	e.f32(v.Y)
	e.f32(v.Z)
}

func (e *encoder) str(s string) error {
	if len(s) > 65535 {
		return fmt.Errorf("slp: string too long (%d bytes)", len(s))
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
	return nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("slp: truncated %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f32() float64 { return float64(math.Float32frombits(d.u32())) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) bool() bool   { return d.u8() != 0 }
func (d *decoder) vec() geom.Vec {
	return geom.V(d.f32(), d.f32(), d.f32())
}

func (d *decoder) vec64() geom.Vec {
	return geom.V(d.f64(), d.f64(), d.f64())
}

func (d *decoder) bytes() []byte {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("slp: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// clampByte rounds a coordinate to the nearest metre and clamps it into
// a byte, the CoarseLocationUpdate packing.
func clampByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v + 0.5)
}

// quantizeEntry packs a map entry at CoarseLocationUpdate resolution:
// x and y to 1 m in a byte, z to 4 m in a byte.
func quantizeEntry(e *encoder, id trace.AvatarID, pos geom.Vec, size float64) {
	_ = size
	e.u64(uint64(id))
	e.u8(clampByte(pos.X))
	e.u8(clampByte(pos.Y))
	e.u8(clampByte(pos.Z / 4))
}

// QuantizePos rounds a position to the values a decoded coarse map entry
// would carry: x and y to 1 m, z to 4 m, each clamped into [0, 255] (z
// into [0, 1020]). The server's delta encoder diffs quantised positions
// with it, so a sub-resolution move emits no delta entry and a client's
// materialised view is byte-identical to a decoded full MapReply;
// re-encoding a quantised position is the identity.
func QuantizePos(p geom.Vec) geom.Vec {
	return geom.V(float64(clampByte(p.X)), float64(clampByte(p.Y)), float64(clampByte(p.Z/4))*4)
}

// maxDirRegions bounds a directory frame's region count. The hard limit
// is really MaxPayload — Marshal rejects a directory whose encoded
// regions overflow the frame, and the estate server validates its own
// directory at construction — this count just caps what a decoder will
// allocate for.
const maxDirRegions = 1024

// DecodeError marks a protocol violation — a bad frame length or an
// undecodable payload — as distinct from a transport failure. Servers
// answer it with a typed Error{ErrMalformed} reply before closing the
// connection instead of silently dropping it.
type DecodeError struct{ Err error }

// Error implements error.
func (e *DecodeError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause.
func (e *DecodeError) Unwrap() error { return e.Err }

// Marshal encodes a message payload (type byte + body).
func Marshal(m Message) ([]byte, error) {
	e := &encoder{buf: make([]byte, 0, 64)}
	e.u8(byte(m.Type()))
	switch v := m.(type) {
	case Hello:
		e.u8(v.Version)
		if err := e.str(v.Name); err != nil {
			return nil, err
		}
		if err := e.str(v.Password); err != nil {
			return nil, err
		}
		e.bool(v.Observer)
	case Welcome:
		e.u64(v.AvatarID)
		if err := e.str(v.Land); err != nil {
			return nil, err
		}
		e.f32(v.Size)
		e.i64(v.SimTime)
		e.f32(v.Warp)
		e.vec(v.Spawn)
	case Error:
		e.u8(byte(v.Code))
		if err := e.str(v.Message); err != nil {
			return nil, err
		}
	case Move:
		e.vec(v.Pos)
	case Chat:
		if len(v.Text) > MaxChatText {
			return nil, fmt.Errorf("slp: chat text too long (%d bytes)", len(v.Text))
		}
		if err := e.str(v.Text); err != nil {
			return nil, err
		}
	case ChatEvent:
		e.u64(uint64(v.From))
		e.vec(v.Pos)
		if err := e.str(v.Text); err != nil {
			return nil, err
		}
	case MapRequest:
	case MapReply:
		e.i64(v.SimTime)
		if len(v.Entries) > 1000 {
			return nil, fmt.Errorf("slp: map reply too large (%d entries)", len(v.Entries))
		}
		e.u16(uint16(len(v.Entries)))
		for _, ent := range v.Entries {
			quantizeEntry(e, ent.ID, ent.Pos, 256)
		}
	case Subscribe:
		e.i64(v.Tau)
		e.bool(v.Aligned)
		e.f32(v.Radius)
		e.bool(v.Delta)
	case ObjectCreate:
		e.u8(byte(v.Kind))
		e.vec(v.Pos)
		e.f32(v.Range)
		e.i64(v.Period)
		if err := e.str(v.Collector); err != nil {
			return nil, err
		}
	case ObjectReply:
		e.u64(v.ObjectID)
		e.i64(v.ExpiresAt)
	case Ping:
		e.u32(v.Seq)
	case Pong:
		e.u32(v.Seq)
		e.i64(v.SimTime)
	case Logout:
	case MapReplyFull:
		e.i64(v.SimTime)
		if len(v.Entries) > MaxFullEntries {
			return nil, fmt.Errorf("slp: full map reply too large (%d entries)", len(v.Entries))
		}
		e.u16(uint16(len(v.Entries)))
		for _, ent := range v.Entries {
			e.u64(uint64(ent.ID))
			e.vec64(ent.Pos)
			e.bool(ent.Seated)
		}
	case MapDelta:
		e.uvarint(uint64(v.SimTime))
		e.uvarint(uint64(v.Seq))
		e.bool(v.Keyframe)
		if len(v.Updated) > MaxDeltaEntries {
			return nil, fmt.Errorf("slp: map delta too large (%d updated)", len(v.Updated))
		}
		e.uvarint(uint64(len(v.Updated)))
		for _, ent := range v.Updated {
			e.uvarint(uint64(ent.ID))
			e.u8(clampByte(ent.Pos.X))
			e.u8(clampByte(ent.Pos.Y))
			e.u8(clampByte(ent.Pos.Z / 4))
		}
		if len(v.Removed) > MaxDeltaEntries {
			return nil, fmt.Errorf("slp: map delta too large (%d removed)", len(v.Removed))
		}
		e.uvarint(uint64(len(v.Removed)))
		for _, id := range v.Removed {
			e.uvarint(uint64(id))
		}
	case DirectoryRequest:
	case Directory:
		if err := e.str(v.Estate); err != nil {
			return nil, err
		}
		e.u16(v.Rows)
		e.u16(v.Cols)
		e.i64(v.SimTime)
		e.f64(v.Warp)
		e.i64(v.Duration)
		e.bool(v.Held)
		if err := e.str(v.QueryAddr); err != nil {
			return nil, err
		}
		if len(v.Regions) > maxDirRegions {
			return nil, fmt.Errorf("slp: directory too large (%d regions)", len(v.Regions))
		}
		e.u16(uint16(len(v.Regions)))
		for _, r := range v.Regions {
			if err := e.str(r.Name); err != nil {
				return nil, err
			}
			if err := e.str(r.Addr); err != nil {
				return nil, err
			}
			e.f64(r.Origin.X)
			e.f64(r.Origin.Y)
			e.f64(r.Size)
		}
	case ClockStart:
	case ClockStarted:
		e.i64(v.SimTime)
	case Query:
		e.u8(byte(v.Target))
		e.u32(uint32(v.Region))
		e.i64(v.Window)
	case AnalysisReply:
		if len(v.Chunk) > MaxAnalysisChunk {
			return nil, fmt.Errorf("slp: analysis chunk too large (%d bytes)", len(v.Chunk))
		}
		e.u8(byte(v.Target))
		e.u32(uint32(v.Region))
		e.i64(v.Window)
		e.i64(v.SimTime)
		e.i64(v.FirstWindow)
		e.i64(v.Windows)
		e.bool(v.Sealed)
		e.u32(v.Total)
		e.u32(v.Offset)
		if err := e.bytes(v.Chunk); err != nil {
			return nil, err
		}
	case StatsReply:
		e.i64(v.SimTime)
		e.i64(v.WindowSec)
		e.i64(v.FirstWindow)
		e.i64(v.Windows)
		e.bool(v.Sealed)
		e.u32(v.Regions)
		e.u32(v.Readers)
		e.u64(v.Dropped)
		e.u64(v.Queries)
		e.u64(v.WsSnapshots)
		e.u64(v.WsIncremental)
		e.u64(v.WsRebuilds)
	default:
		return nil, fmt.Errorf("slp: cannot marshal %T", m)
	}
	if len(e.buf) > MaxPayload {
		return nil, fmt.Errorf("slp: payload %d exceeds max %d", len(e.buf), MaxPayload)
	}
	return e.buf, nil
}

// Unmarshal decodes a payload produced by Marshal. Every decoding
// failure is reported as a *DecodeError.
func Unmarshal(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return nil, &DecodeError{fmt.Errorf("slp: empty payload")}
	}
	if len(payload) > MaxPayload {
		return nil, &DecodeError{fmt.Errorf("slp: payload %d exceeds max %d", len(payload), MaxPayload)}
	}
	d := &decoder{buf: payload, off: 1}
	var m Message
	switch MsgType(payload[0]) {
	case TypeHello:
		v := Hello{Version: d.u8()}
		v.Name = d.str()
		v.Password = d.str()
		v.Observer = d.bool()
		m = v
	case TypeWelcome:
		v := Welcome{AvatarID: d.u64()}
		v.Land = d.str()
		v.Size = d.f32()
		v.SimTime = d.i64()
		v.Warp = d.f32()
		v.Spawn = d.vec()
		m = v
	case TypeError:
		v := Error{Code: ErrCode(d.u8())}
		v.Message = d.str()
		m = v
	case TypeMove:
		m = Move{Pos: d.vec()}
	case TypeChat:
		v := Chat{Text: d.str()}
		if d.err == nil && len(v.Text) > MaxChatText {
			return nil, &DecodeError{fmt.Errorf("slp: chat text too long (%d bytes)", len(v.Text))}
		}
		m = v
	case TypeChatEvent:
		v := ChatEvent{From: trace.AvatarID(d.u64())}
		v.Pos = d.vec()
		v.Text = d.str()
		m = v
	case TypeMapRequest:
		m = MapRequest{}
	case TypeMapReply:
		v := MapReply{SimTime: d.i64()}
		n := int(d.u16())
		if d.err == nil && n > 1000 {
			return nil, &DecodeError{fmt.Errorf("slp: map reply claims %d entries", n)}
		}
		for i := 0; i < n && d.err == nil; i++ {
			id := trace.AvatarID(d.u64())
			x := float64(d.u8())
			y := float64(d.u8())
			z := float64(d.u8()) * 4
			v.Entries = append(v.Entries, MapEntry{ID: id, Pos: geom.V(x, y, z)})
		}
		m = v
	case TypeSubscribe:
		v := Subscribe{Tau: d.i64()}
		v.Aligned = d.bool()
		v.Radius = d.f32()
		v.Delta = d.bool()
		m = v
	case TypeObjectCreate:
		v := ObjectCreate{Kind: ObjectKind(d.u8())}
		v.Pos = d.vec()
		v.Range = d.f32()
		v.Period = d.i64()
		v.Collector = d.str()
		m = v
	case TypeObjectReply:
		m = ObjectReply{ObjectID: d.u64(), ExpiresAt: d.i64()}
	case TypePing:
		m = Ping{Seq: d.u32()}
	case TypePong:
		m = Pong{Seq: d.u32(), SimTime: d.i64()}
	case TypeLogout:
		m = Logout{}
	case TypeMapReplyFull:
		v := MapReplyFull{SimTime: d.i64()}
		n := int(d.u16())
		if d.err == nil && n > MaxFullEntries {
			return nil, &DecodeError{fmt.Errorf("slp: full map reply claims %d entries", n)}
		}
		for i := 0; i < n && d.err == nil; i++ {
			ent := FullEntry{ID: trace.AvatarID(d.u64())}
			ent.Pos = d.vec64()
			ent.Seated = d.bool()
			v.Entries = append(v.Entries, ent)
		}
		m = v
	case TypeMapDelta:
		v := MapDelta{SimTime: int64(d.uvarint())}
		v.Seq = uint32(d.uvarint())
		v.Keyframe = d.bool()
		// Both counts are claim-checked before any allocation (and before
		// the int conversion, so a 64-bit claim cannot wrap): a hostile
		// frame cannot make the decoder reserve more entries than the
		// encoder could ever have produced.
		un := d.uvarint()
		if d.err == nil && un > MaxDeltaEntries {
			return nil, &DecodeError{fmt.Errorf("slp: map delta claims %d updated entries", un)}
		}
		for i := 0; i < int(un) && d.err == nil; i++ {
			id := trace.AvatarID(d.uvarint())
			x := float64(d.u8())
			y := float64(d.u8())
			z := float64(d.u8()) * 4
			v.Updated = append(v.Updated, MapEntry{ID: id, Pos: geom.V(x, y, z)})
		}
		un = d.uvarint()
		if d.err == nil && un > MaxDeltaEntries {
			return nil, &DecodeError{fmt.Errorf("slp: map delta claims %d removed entries", un)}
		}
		for i := 0; i < int(un) && d.err == nil; i++ {
			v.Removed = append(v.Removed, trace.AvatarID(d.uvarint()))
		}
		m = v
	case TypeDirectoryRequest:
		m = DirectoryRequest{}
	case TypeDirectory:
		v := Directory{Estate: d.str()}
		v.Rows = d.u16()
		v.Cols = d.u16()
		v.SimTime = d.i64()
		v.Warp = d.f64()
		v.Duration = d.i64()
		v.Held = d.bool()
		v.QueryAddr = d.str()
		n := int(d.u16())
		if d.err == nil && n > maxDirRegions {
			return nil, &DecodeError{fmt.Errorf("slp: directory claims %d regions", n)}
		}
		for i := 0; i < n && d.err == nil; i++ {
			r := DirRegion{Name: d.str()}
			r.Addr = d.str()
			r.Origin.X = d.f64()
			r.Origin.Y = d.f64()
			r.Size = d.f64()
			v.Regions = append(v.Regions, r)
		}
		m = v
	case TypeClockStart:
		m = ClockStart{}
	case TypeClockStarted:
		m = ClockStarted{SimTime: d.i64()}
	case TypeQuery:
		v := Query{Target: QueryTarget(d.u8())}
		v.Region = int32(d.u32())
		v.Window = d.i64()
		m = v
	case TypeAnalysisReply:
		v := AnalysisReply{Target: QueryTarget(d.u8())}
		v.Region = int32(d.u32())
		v.Window = d.i64()
		v.SimTime = d.i64()
		v.FirstWindow = d.i64()
		v.Windows = d.i64()
		v.Sealed = d.bool()
		v.Total = d.u32()
		v.Offset = d.u32()
		v.Chunk = d.bytes()
		if d.err == nil && len(v.Chunk) > MaxAnalysisChunk {
			return nil, &DecodeError{fmt.Errorf("slp: analysis chunk claims %d bytes", len(v.Chunk))}
		}
		m = v
	case TypeStatsReply:
		v := StatsReply{SimTime: d.i64()}
		v.WindowSec = d.i64()
		v.FirstWindow = d.i64()
		v.Windows = d.i64()
		v.Sealed = d.bool()
		v.Regions = d.u32()
		v.Readers = d.u32()
		v.Dropped = d.u64()
		v.Queries = d.u64()
		v.WsSnapshots = d.u64()
		v.WsIncremental = d.u64()
		v.WsRebuilds = d.u64()
		m = v
	default:
		return nil, &DecodeError{fmt.Errorf("slp: unknown message type %d", payload[0])}
	}
	if err := d.finish(); err != nil {
		return nil, &DecodeError{err}
	}
	return m, nil
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	payload, err := Marshal(m)
	if err != nil {
		return err
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// EncodeFrame marshals a message with its 2-byte length header already
// prepended — the exact bytes WriteMessage would put on the wire. The
// serving path encodes each per-tick push once with it and enqueues the
// same frame to every subscriber, instead of re-marshalling per session.
func EncodeFrame(m Message) ([]byte, error) {
	payload, err := Marshal(m)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(frame, uint16(len(payload)))
	copy(frame[2:], payload)
	return frame, nil
}

// ReadMessage reads and decodes one framed message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n == 0 || n > MaxPayload {
		return nil, &DecodeError{fmt.Errorf("slp: bad frame length %d", n)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return Unmarshal(payload)
}
