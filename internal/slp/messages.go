// Package slp implements the Second Life-style wire protocol spoken
// between the metaverse server (internal/server) and external clients —
// most importantly the measurement crawler, which uses the protocol's
// coarse map facility exactly as the paper's crawler used libsecondlife's
// map feature.
//
// Framing is a 2-byte big-endian payload length followed by the payload;
// the first payload byte is the message type. Positions in MapReply are
// quantised to 1 metre in x and y and 4 metres in z, replicating the
// CoarseLocationUpdate resolution the real client received. All multi-byte
// integers are big-endian.
package slp

import (
	"fmt"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// Version is the protocol version carried in Hello.
// Version 2 added the estate facility: observer logins, full-resolution
// map replies, the directory/clock endpoints, and inter-server avatar
// transfers, since retired (their message codes stay reserved; clients
// never sent them). Version 3 added the analytics query facility: the
// Query/AnalysisReply/StatsReply exchange and the directory's
// query-endpoint address. Version 4 added interest management:
// Subscribe grew a radius and a delta-encoding opt-in, and MapDelta
// carries moved/arrived/departed entries between keyframes.
const Version = 4

// MaxPayload bounds a frame's payload size (the length header is 16-bit,
// so it must stay below 65536).
const MaxPayload = 32 * 1024

// MsgType identifies a message.
type MsgType byte

// Message type codes. The zero value is invalid so that an all-zeros
// frame cannot masquerade as a message.
const (
	TypeInvalid MsgType = iota
	TypeHello
	TypeWelcome
	TypeError
	TypeMove
	TypeChat
	TypeChatEvent
	TypeMapRequest
	TypeMapReply
	TypeSubscribe
	TypeObjectCreate
	TypeObjectReply
	TypePing
	TypePong
	TypeLogout
	TypeMapReplyFull
	// Codes 16–18 are reserved: they carried the retired inter-server
	// handoff messages, and never decode now.
	_
	_
	_
	TypeDirectoryRequest
	TypeDirectory
	TypeClockStart
	TypeClockStarted
	TypeQuery
	TypeAnalysisReply
	TypeStatsReply
	TypeMapDelta
)

// String returns the message type name.
func (t MsgType) String() string {
	names := [...]string{"invalid", "hello", "welcome", "error", "move", "chat",
		"chat-event", "map-request", "map-reply", "subscribe", "object-create",
		"object-reply", "ping", "pong", "logout", "map-reply-full", "", "", "",
		"directory-request", "directory", "clock-start", "clock-started", "query",
		"analysis-reply", "stats-reply", "map-delta"}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the message's wire type code.
	Type() MsgType
}

// Hello opens a session: the client logs in as an avatar, exactly like the
// stripped-down libsecondlife client of the paper ("requires a valid
// login/password to connect").
type Hello struct {
	Version  byte
	Name     string
	Password string
	// Observer requests a measurement-grade session: the server admits no
	// avatar for it (nothing to perturb, no capacity slot consumed) and
	// answers its map traffic with full-resolution MapReplyFull frames
	// including the seated flag. Estate monitors use it; a classic crawler
	// leaves it unset and appears in-world as an avatar, as in the paper.
	Observer bool
}

// Type implements Message.
func (Hello) Type() MsgType { return TypeHello }

// Welcome acknowledges a login.
type Welcome struct {
	// AvatarID is the server-assigned identity; the crawler filters its
	// own entry out of map replies with it.
	AvatarID uint64
	// Land and Size describe the hosted land.
	Land string
	Size float64
	// SimTime is the current simulation clock in seconds.
	SimTime int64
	// Warp is the number of simulated seconds per wall-clock second.
	Warp float64
	// Spawn is the avatar's initial position.
	Spawn geom.Vec
}

// Type implements Message.
func (Welcome) Type() MsgType { return TypeWelcome }

// ErrCode classifies protocol errors.
type ErrCode byte

// Error codes.
const (
	ErrNone ErrCode = iota
	ErrBadVersion
	ErrLandFull
	ErrBadCredentials
	ErrObjectsForbidden
	ErrBadRequest
	// ErrMalformed reports an undecodable frame: instead of silently
	// dropping the connection, the server names the protocol violation
	// before closing.
	ErrMalformed
)

// Error reports a request failure.
type Error struct {
	Code    ErrCode
	Message string
}

// Type implements Message.
func (Error) Type() MsgType { return TypeError }

// Move asks the server to relocate the client's avatar.
type Move struct {
	Pos geom.Vec
}

// Type implements Message.
func (Move) Type() MsgType { return TypeMove }

// MaxChatText bounds a Chat utterance's text in bytes, enforced at both
// encode and decode. Beyond matching Second Life's short chat lines, the
// bound is what makes the server's relay loss-free by construction: a
// relayed ChatEvent is the admitted text plus ~29 bytes of From/Pos
// framing, so it always re-encodes under MaxPayload.
const MaxChatText = 255

// Chat broadcasts a local chat message (server-enforced ~20 m audibility).
type Chat struct {
	Text string
}

// Type implements Message.
func (Chat) Type() MsgType { return TypeChat }

// ChatEvent delivers a chat utterance heard near the client's avatar.
type ChatEvent struct {
	From trace.AvatarID
	Pos  geom.Vec
	Text string
}

// Type implements Message.
func (ChatEvent) Type() MsgType { return TypeChatEvent }

// MapRequest polls the land map once.
type MapRequest struct{}

// Type implements Message.
func (MapRequest) Type() MsgType { return TypeMapRequest }

// MapEntry is one avatar on the coarse map. Coordinates are already
// dequantised back to metres on decode (x, y at 1 m, z at 4 m resolution).
type MapEntry struct {
	ID  trace.AvatarID
	Pos geom.Vec
}

// MapReply carries a full-land snapshot: the position of every connected
// avatar, bounded only by the land's ~100-avatar cap.
type MapReply struct {
	SimTime int64
	Entries []MapEntry
}

// Type implements Message.
func (MapReply) Type() MsgType { return TypeMapReply }

// Subscribe requests a MapReply push every Tau simulated seconds,
// replacing hand-rolled polling under time warp.
type Subscribe struct {
	Tau int64
	// Aligned anchors pushes to absolute multiples of Tau on the server's
	// simulation clock rather than to the subscription instant. Estate
	// monitors subscribe aligned so every region's snapshots share one
	// timeline.
	Aligned bool
	// Radius, when positive, requests an area-of-interest subscription:
	// pushes carry only entities within Radius metres (ground plane) of
	// the session's avatar instead of the whole land. Observer sessions
	// ignore it — the measurement path stays full-resolution, full-land.
	Radius float64
	// Delta opts into delta encoding: pushes arrive as MapDelta frames
	// carrying only the entries that moved, appeared, or departed since
	// the previous push, with a periodic full keyframe for resync.
	// Requires a client that understands MapDelta (see DeltaTracker).
	Delta bool
}

// Type implements Message.
func (Subscribe) Type() MsgType { return TypeSubscribe }

// ObjectKind classifies deployable objects.
type ObjectKind byte

// Object kinds.
const (
	ObjectSensor ObjectKind = 1
)

// ObjectCreate deploys a scripted object (a virtual sensor) on the land,
// subject to the land's object policy.
type ObjectCreate struct {
	Kind ObjectKind
	Pos  geom.Vec
	// Range is the sensing radius in metres (the platform caps it at 96).
	Range float64
	// Period is the scan period in simulated seconds.
	Period int64
	// Collector is the HTTP URL the sensor flushes its cache to.
	Collector string
}

// Type implements Message.
func (ObjectCreate) Type() MsgType { return TypeObjectCreate }

// ObjectReply acknowledges an ObjectCreate.
type ObjectReply struct {
	ObjectID uint64
	// ExpiresAt is the sim time at which a public land reclaims the
	// object; 0 means no expiry (sandbox).
	ExpiresAt int64
}

// Type implements Message.
func (ObjectReply) Type() MsgType { return TypeObjectReply }

// Ping measures liveness; the server echoes Seq in a Pong.
type Ping struct {
	Seq uint32
}

// Type implements Message.
func (Ping) Type() MsgType { return TypePing }

// Pong answers a Ping.
type Pong struct {
	Seq     uint32
	SimTime int64
}

// Type implements Message.
func (Pong) Type() MsgType { return TypePong }

// Logout closes the session cleanly.
type Logout struct{}

// Type implements Message.
func (Logout) Type() MsgType { return TypeLogout }

// FullEntry is one avatar on the full-resolution map: float64 position
// and the seated flag, with none of the CoarseLocationUpdate quantisation.
type FullEntry struct {
	ID     trace.AvatarID
	Pos    geom.Vec
	Seated bool
}

// MaxFullEntries bounds a MapReplyFull frame (each entry is 33 bytes and
// the frame must fit MaxPayload).
const MaxFullEntries = 900

// MapReplyFull is the measurement-grade land snapshot served to observer
// sessions: exact positions plus the seated state, so an estate monitor
// reproduces the in-process trace bit for bit. Regular avatars keep
// receiving the quantised MapReply of the 2008 service.
type MapReplyFull struct {
	SimTime int64
	Entries []FullEntry
}

// Type implements Message.
func (MapReplyFull) Type() MsgType { return TypeMapReplyFull }

// MaxDeltaEntries bounds each of a MapDelta's lists, mirroring the
// coarse MapReply's entry cap: a delta never describes more avatars than
// a full snapshot could carry.
const MaxDeltaEntries = 1000

// MapDelta is a delta-encoded map push for subscribers that opted in
// with Subscribe.Delta: Updated carries the coarse-quantised entries
// that moved (at CoarseLocationUpdate resolution) or newly appeared
// since the subscriber's previous push, Removed the avatars that left
// the subscriber's view. Seq increments by one per push on the session;
// a client that observes a gap lost a frame and must discard its state
// until the next keyframe. Keyframe frames carry the complete current
// view in Updated (Removed empty) and re-anchor Seq, so a desynced
// client converges after at most one keyframe interval.
//
// On the wire, SimTime, Seq, both counts, and every avatar ID are
// LEB128 varints (positions stay the 3-byte coarse quantisation): this
// is the protocol's highest-rate per-session message and its values are
// small, so varints roughly halve the steady-state entry cost.
type MapDelta struct {
	SimTime  int64
	Seq      uint32
	Keyframe bool
	Updated  []MapEntry
	Removed  []trace.AvatarID
}

// Type implements Message.
func (MapDelta) Type() MsgType { return TypeMapDelta }

// DirectoryRequest asks an estate directory endpoint for the grid
// description.
type DirectoryRequest struct{}

// Type implements Message.
func (DirectoryRequest) Type() MsgType { return TypeDirectoryRequest }

// DirRegion describes one region of a served estate: where to connect
// and where the region sits in estate-global coordinates.
type DirRegion struct {
	Name string
	// Addr is the region server's TCP address.
	Addr string
	// Origin is the region's offset in estate coordinates (metres).
	Origin geom.Vec
	// Size is the region's edge length in metres.
	Size float64
}

// Directory describes a served estate: the grid shape, the shared clock,
// and one entry per region. Clients discover the grid here, dial each
// region, and align their monitoring on the shared clock.
type Directory struct {
	Estate     string
	Rows, Cols uint16
	// SimTime is the shared clock at reply time; Warp its rate.
	SimTime int64
	Warp    float64
	// Duration is the estate's scheduled measurement length in simulated
	// seconds.
	Duration int64
	// Held reports that the shared clock has not started yet: the estate
	// waits for a ClockStart, so monitors can connect before tick one.
	Held bool
	// QueryAddr is the live analytics query endpoint's TCP address;
	// empty when the estate serves no analytics.
	QueryAddr string
	Regions   []DirRegion
}

// Type implements Message.
func (Directory) Type() MsgType { return TypeDirectory }

// ClockStart releases a held estate clock (idempotent).
type ClockStart struct{}

// Type implements Message.
func (ClockStart) Type() MsgType { return TypeClockStart }

// ClockStarted acknowledges a ClockStart with the shared clock value.
type ClockStarted struct {
	SimTime int64
}

// Type implements Message.
func (ClockStarted) Type() MsgType { return TypeClockStarted }

// QueryTarget selects what a Query asks for.
type QueryTarget byte

// Query targets.
const (
	// QueryCumulative asks for the merge of every sealed window so far —
	// or, after the run ends, the whole-trace Analysis.
	QueryCumulative QueryTarget = 1
	// QueryWindow asks for one sealed window by index.
	QueryWindow QueryTarget = 2
	// QueryStats asks for the service's counters (a StatsReply).
	QueryStats QueryTarget = 3
)

// Query asks the analytics endpoint for a serialised Analysis or for
// service counters. One Query yields one StatsReply, one Error, or one
// or more AnalysisReply chunks carrying a core analysis blob.
type Query struct {
	Target QueryTarget
	// Region selects a region-local analysis; -1 selects the
	// estate-global one.
	Region int32
	// Window is the window index for QueryWindow; -1 selects the most
	// recently sealed window. Ignored for other targets.
	Window int64
}

// Type implements Message.
func (Query) Type() MsgType { return TypeQuery }

// MaxAnalysisChunk bounds one AnalysisReply's Chunk so the frame stays
// comfortably under MaxPayload alongside the fixed header fields.
const MaxAnalysisChunk = 24 * 1024

// AnalysisReply carries one chunk of a serialised Analysis blob
// (core.EncodeAnalysis format). Blobs larger than MaxAnalysisChunk span
// several replies; every chunk repeats the header, and the client
// reassembles until Offset+len(Chunk) == Total. A reply with Total 0
// means no analysis exists yet for the request (no window sealed).
type AnalysisReply struct {
	// Target, Region, and Window echo the query (Window resolved to the
	// actual index when the query asked for the latest).
	Target QueryTarget
	Region int32
	Window int64
	// SimTime is the shared clock at snapshot-publish time.
	SimTime int64
	// FirstWindow and Windows describe the retained window range:
	// indices [FirstWindow, FirstWindow+Windows) have been sealed.
	FirstWindow int64
	Windows     int64
	// Sealed reports that the run has ended and the cumulative analysis
	// is the final whole-trace one.
	Sealed bool
	// Total is the full blob length; Offset is this chunk's position.
	Total  uint32
	Offset uint32
	Chunk  []byte
}

// Type implements Message.
func (AnalysisReply) Type() MsgType { return TypeAnalysisReply }

// StatsReply answers a QueryStats with the analytics service's counters.
type StatsReply struct {
	// SimTime is the shared clock at publish time; WindowSec the
	// analysis window length.
	SimTime   int64
	WindowSec int64
	// FirstWindow and Windows describe the retained sealed-window range.
	FirstWindow int64
	Windows     int64
	// Sealed reports that the run has ended.
	Sealed bool
	// Regions is the estate's region count (1 for a single land).
	Regions uint32
	// Readers is the number of currently connected analytics readers.
	Readers uint32
	// Dropped counts readers disconnected by the drop-slow-reader
	// policy; Queries counts queries answered.
	Dropped uint64
	Queries uint64
	// Workspace counters: snapshots processed, incremental applications,
	// and full rebuilds across the analysis pipeline.
	WsSnapshots   uint64
	WsIncremental uint64
	WsRebuilds    uint64
}

// Type implements Message.
func (StatsReply) Type() MsgType { return TypeStatsReply }
