package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slmob/internal/geom"
	"slmob/internal/sensor"
	"slmob/internal/slp"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// landHost serves the slp session protocol for one hosted land. The
// single-land Server owns exactly one; an EstateServer owns one per
// region, all guarded by the estate-wide lock. The owner supplies the
// mutex, runs the simulation clock, and calls pushDueLocked after each
// advance.
type landHost struct {
	mu       *sync.Mutex
	closed   *bool
	ln       net.Listener
	sim      *world.Sim
	sensors  *sensor.Engine
	sessions map[*session]struct{}
	warp     float64
	password string

	// defaultAOI, when positive, imposes an area-of-interest radius on
	// every avatar subscription that did not request its own (slserve
	// -aoi). Observer sessions are always exempt: the measurement path
	// stays full-land, full-resolution.
	defaultAOI float64

	// snap is the shared per-tick serving snapshot: positions are
	// materialised (and the AOI grid rebuilt) at most once per simulation
	// tick, no matter how many sessions are pushed to.
	snap mapSnap

	// clock publishes the simulation time for readers that must not wait
	// on the lock — Ping above all, whose round trip would otherwise
	// queue behind every tick. It is stored under the lock at the end of
	// each step, so a reader sees the time of the last completed step.
	clock atomic.Int64
}

// aoiGridCell is the serving grid's cell edge in metres — sized for the
// chat/contact-range radii (20–96 m) AOI subscribers ask for.
const aoiGridCell = 32.0

// keyframeEvery is the delta-subscription keyframe cadence: after this
// many delta pushes the next push is a full keyframe, so a client that
// lost a frame (and discards deltas until resync) converges within one
// cadence interval.
const keyframeEvery = 12

// mapSnap is the per-tick snapshot the whole push path serves from: the
// avatar states (sorted by ID, externals included), a spatial grid over
// them for AOI queries, and the lazily encoded wire frames shared by
// every same-shaped subscriber. The frames must be allocated fresh per
// tick — previous ticks' frames may still sit in session backlogs — but
// the states buffer and grid are reused, so a tick costs O(avatars)
// plus at most one encoding per frame shape, instead of O(sessions ×
// avatars) as the old per-session States scan did.
type mapSnap struct {
	t     int64
	built bool
	// dirty forces a rebuild within a tick after external-avatar
	// membership or position changes (admits, moves, logouts), which
	// happen between simulation steps: a client that polls right after
	// logging in must see itself on the map.
	dirty  bool
	states []world.AvatarState
	// grid indexes states by slice position (not avatar ID), so an AOI
	// visit resolves the full state — seated flag included — without a
	// lookup.
	grid   *geom.Grid
	coarse []byte // shared framed MapReply (quantised, seated at {0,0,0})
	full   []byte // shared framed MapReplyFull (exact, observers only)
}

// sessionBacklog bounds a session's outbound push backlog. The queue
// grows on demand, so a healthy monitor that momentarily falls behind a
// high-warp burst just buffers (a whole measurement run is a few
// hundred pushes); a client that stopped reading altogether accumulates
// until this cap and is dropped. The bound is on count, not bytes: each
// entry is an already-snapshotted push the producer paid for anyway.
const sessionBacklog = 4096

// session is one connected client.
type session struct {
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex
	// qmu/qcond guard the outbound push backlog (map pushes, chat
	// events) drained by the session's writer goroutine, so producers
	// holding the sim lock never touch the network. The backlog holds
	// pre-framed wire bytes: per-tick pushes are encoded once and the
	// same frame enqueued to every subscriber. quit closes on teardown;
	// once guards it.
	qmu     sync.Mutex
	qcond   *sync.Cond
	backlog [][]byte
	// spare recycles the previously drained batch's slice header array,
	// so steady-state producers append into pooled capacity.
	spare   [][]byte
	qclosed bool
	// inflight counts the batch the writer goroutine is currently
	// writing; backlog empty + inflight zero means fully drained.
	inflight int
	// qmax caps the backlog; sessionBacklog unless a test narrows it.
	qmax int
	quit chan struct{}
	once sync.Once
	// observer marks a measurement-grade session: no avatar admitted,
	// full-resolution map replies.
	observer bool
	avatarID trace.AvatarID
	// pos caches the session avatar's current (clamped) position —
	// externals only move through MoveExternal, so the cache is exact.
	// Guarded by the host lock like everything below.
	pos geom.Vec
	// subTau, when non-zero, requests a map push every subTau sim seconds.
	subTau   int64
	nextPush int64
	// aoi, when positive, filters pushes to entities within aoi metres
	// of the session's avatar; delta switches the pushes to MapDelta
	// frames against prevView, with a keyframe every keyframeEvery
	// pushes (needKey forces one, e.g. on a fresh subscription).
	aoi      float64
	delta    bool
	deltaSeq uint32
	sinceKey int
	needKey  bool
	// prevView/curView are the session's last and in-progress quantised
	// views (sorted by ID); updBuf/remBuf are the delta scratch lists.
	// All four are pooled across pushes.
	prevView []slp.MapEntry
	curView  []slp.MapEntry
	updBuf   []slp.MapEntry
	remBuf   []trace.AvatarID
}

// newSession wraps an accepted connection.
func newSession(conn net.Conn) *session {
	sess := &session{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		qmax: sessionBacklog,
		quit: make(chan struct{}),
	}
	sess.qcond = sync.NewCond(&sess.qmu)
	return sess
}

// enqueueRaw hands one pre-framed message to the session's writer
// goroutine without ever blocking the caller — producers hold the sim
// lock. A nil frame marks an upstream encoding failure and closes the
// session (the old per-session write path failed the same way). A
// backlog at the cap means the client stopped draining its socket long
// ago: the session is closed (the drop-slow-consumer policy) rather
// than letting one wedged client stall the clock for every region.
//
//slmob:hotpath
func (sess *session) enqueueRaw(frame []byte) {
	if frame == nil {
		sess.close()
		return
	}
	sess.qmu.Lock()
	if sess.qclosed {
		sess.qmu.Unlock()
		return
	}
	if len(sess.backlog) >= sess.qmax {
		sess.qmu.Unlock()
		sess.close()
		return
	}
	sess.backlog = append(sess.backlog, frame)
	sess.qcond.Signal()
	sess.qmu.Unlock()
}

// close tears the session down from any goroutine: the writer exits via
// the closed flag, the reader via the closed connection.
func (sess *session) close() {
	sess.once.Do(func() {
		sess.qmu.Lock()
		sess.qclosed = true
		sess.qcond.Broadcast()
		sess.qmu.Unlock()
		close(sess.quit)
	})
	sess.conn.Close()
}

// writeLoop drains the push backlog onto the connection in batches,
// flushing once per batch. Write failures close the session loudly so
// the reader goroutine drops it.
func (sess *session) writeLoop() {
	for {
		sess.qmu.Lock()
		for len(sess.backlog) == 0 && !sess.qclosed {
			sess.qcond.Wait()
		}
		if sess.qclosed {
			sess.qmu.Unlock()
			return
		}
		batch := sess.backlog
		sess.backlog = sess.spare[:0]
		sess.spare = nil
		sess.inflight = len(batch)
		sess.qmu.Unlock()
		err := sess.writeFrames(batch)
		sess.qmu.Lock()
		sess.inflight = 0
		sess.spare = batch[:0]
		sess.qmu.Unlock()
		if err != nil {
			sess.close()
			return
		}
	}
}

// writeFrames writes one drained batch of pre-framed messages under the
// write mutex, sharing the connection with direct request replies.
func (sess *session) writeFrames(frames [][]byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	_ = sess.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	for _, f := range frames {
		if _, err := sess.bw.Write(f); err != nil {
			return err
		}
	}
	return sess.bw.Flush()
}

// drained reports that every queued push has been written (or the
// session died trying).
func (sess *session) drained() bool {
	sess.qmu.Lock()
	defer sess.qmu.Unlock()
	return sess.qclosed || (len(sess.backlog) == 0 && sess.inflight == 0)
}

// drain waits until the writer goroutine has flushed every queued push,
// the session closes, or the timeout passes — the graceful half of
// shutdown. Pushes are queued asynchronously, so when a run ends its
// final snapshots may still be in flight: healthy monitors must receive
// them before the connection closes (the old synchronous write path got
// this for free).
func (sess *session) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for !sess.drained() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func newLandHost(mu *sync.Mutex, closed *bool, scn world.Scenario, addr string, warp float64, password string) (*landHost, error) {
	sim, err := world.NewSim(scn)
	if err != nil {
		return nil, err
	}
	return newLandHostSim(mu, closed, sim, addr, warp, password)
}

func newLandHostSim(mu *sync.Mutex, closed *bool, sim *world.Sim, addr string, warp float64, password string) (*landHost, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &landHost{
		mu:       mu,
		closed:   closed,
		ln:       ln,
		sim:      sim,
		sensors:  sensor.NewEngine(sim.Scenario().Land),
		sessions: make(map[*session]struct{}),
		warp:     warp,
		password: password,
	}
	h.clock.Store(sim.Time())
	sim.SetChatHook(h.relayChat)
	return h, nil
}

// addr returns the host's bound listen address.
func (h *landHost) addr() string { return h.ln.Addr().String() }

// acceptLoop serves connections until the listener closes; every
// connection runs on its own goroutine tracked by wg.
func (h *landHost) acceptLoop(wg *sync.WaitGroup) error {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return fmt.Errorf("server: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.serveConn(conn, wg)
		}()
	}
}

// sessionsLocked snapshots the live sessions; the owner holds the lock.
func (h *landHost) sessionsLocked() []*session {
	out := make([]*session, 0, len(h.sessions))
	for sess := range h.sessions {
		out = append(out, sess)
	}
	return out
}

// drainSessions waits (concurrently, bounded by timeout) for every
// session's queued pushes to reach the wire — called between the end of
// the run and the connection teardown, without holding the sim lock.
func drainSessions(sessions []*session, timeout time.Duration) {
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess *session) {
			defer wg.Done()
			sess.drain(timeout)
		}(sess)
	}
	wg.Wait()
}

// shutdownLocked closes every session; the owner holds the lock.
func (h *landHost) shutdownLocked() {
	for sess := range h.sessions {
		sess.conn.Close()
	}
}

// serveConn runs the handshake and then the session loop.
func (h *landHost) serveConn(conn net.Conn, wg *sync.WaitGroup) {
	defer conn.Close()
	sess := newSession(conn)

	// Handshake.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := slp.ReadMessage(conn)
	if err != nil {
		// A protocol violation gets a typed reply before the close; a
		// transport failure (timeout, reset) cannot be answered.
		var de *slp.DecodeError
		if errors.As(err, &de) {
			_ = sess.write(slp.Error{Code: slp.ErrMalformed, Message: de.Error()})
		}
		return
	}
	hello, ok := msg.(slp.Hello)
	if !ok {
		_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "expected hello"})
		return
	}
	if hello.Version != slp.Version {
		_ = sess.write(slp.Error{Code: slp.ErrBadVersion, Message: "unsupported protocol version"})
		return
	}
	if h.password != "" && hello.Password != h.password {
		_ = sess.write(slp.Error{Code: slp.ErrBadCredentials, Message: "bad credentials"})
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	h.mu.Lock()
	if *h.closed {
		h.mu.Unlock()
		return
	}
	land := h.sim.Scenario().Land
	var spawn geom.Vec
	if hello.Observer {
		// Observers are not in-world: no avatar, no capacity slot, and
		// nothing for curious residents to investigate.
		sess.observer = true
	} else {
		spawn = land.Spawns[0]
		id, err := h.sim.AddExternal(spawn)
		if err != nil {
			h.mu.Unlock()
			_ = sess.write(slp.Error{Code: slp.ErrLandFull, Message: err.Error()})
			return
		}
		sess.avatarID = id
		if p, ok := h.sim.ExternalPos(id); ok {
			sess.pos = p
		}
		h.snap.dirty = true
	}
	h.sessions[sess] = struct{}{}
	welcome := slp.Welcome{
		AvatarID: uint64(sess.avatarID),
		Land:     land.Name,
		Size:     land.Size,
		SimTime:  h.sim.Time(),
		Warp:     h.warp,
		Spawn:    spawn,
	}
	h.mu.Unlock()

	if err := sess.write(welcome); err != nil {
		h.dropSession(sess)
		return
	}
	defer h.dropSession(sess)
	defer sess.close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess.writeLoop()
	}()

	for {
		msg, err := slp.ReadMessage(conn)
		if err != nil {
			var de *slp.DecodeError
			if errors.As(err, &de) {
				_ = sess.write(slp.Error{Code: slp.ErrMalformed, Message: de.Error()})
			}
			return
		}
		if done := h.handle(sess, msg); done {
			return
		}
	}
}

func (h *landHost) dropSession(sess *session) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.sessions[sess]; ok {
		delete(h.sessions, sess)
		if !sess.observer {
			h.sim.RemoveExternal(sess.avatarID)
			h.snap.dirty = true
		}
	}
}

// handle processes one client message; it reports whether the session is
// finished.
func (h *landHost) handle(sess *session, msg slp.Message) bool {
	switch v := msg.(type) {
	case slp.Move:
		if sess.observer {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "observer session has no avatar"})
			return false
		}
		h.mu.Lock()
		err := h.sim.MoveExternal(sess.avatarID, v.Pos)
		if err == nil {
			if p, ok := h.sim.ExternalPos(sess.avatarID); ok {
				sess.pos = p
			}
			h.snap.dirty = true
		}
		h.mu.Unlock()
		if err != nil {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: err.Error()})
		}
	case slp.Chat:
		if sess.observer {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "observer session has no avatar"})
			return false
		}
		h.mu.Lock()
		err := h.sim.ExternalChat(sess.avatarID, v.Text)
		h.mu.Unlock()
		if err != nil {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: err.Error()})
		}
	case slp.MapRequest:
		h.mu.Lock()
		h.pushMapLocked(sess)
		h.mu.Unlock()
	case slp.Subscribe:
		if v.Tau <= 0 {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "tau must be positive"})
			return false
		}
		if v.Radius < 0 || math.IsNaN(v.Radius) || math.IsInf(v.Radius, 0) {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "radius must be finite and non-negative"})
			return false
		}
		h.mu.Lock()
		sess.subTau = v.Tau
		now := h.sim.Time()
		if v.Aligned {
			// Anchor pushes to absolute multiples of tau on the server
			// clock, so every monitor of an estate shares one timeline.
			sess.nextPush = now - now%v.Tau + v.Tau
		} else {
			sess.nextPush = now + v.Tau
		}
		if !sess.observer {
			// Interest management is an avatar-session facility; the
			// observer measurement path always stays full-land and
			// full-resolution, so a crawler cannot mis-measure by
			// accident. A server-wide default radius applies to avatars
			// that did not pick their own.
			radius := v.Radius
			if radius <= 0 {
				radius = h.defaultAOI
			}
			// Clamp to the land diagonal: the grid never holds a point
			// farther away, so a larger radius buys nothing but
			// VisitWithin cost — and an unclamped huge one (1e9 m) would
			// stall the region's tick loop for every session.
			if m := h.maxAOIRadius(); radius > m {
				radius = m
			}
			sess.aoi = radius
			sess.delta = v.Delta
			sess.needKey = true
		}
		h.mu.Unlock()
	case slp.ObjectCreate:
		if sess.observer {
			_ = sess.write(slp.Error{Code: slp.ErrBadRequest, Message: "observer session has no avatar"})
			return false
		}
		h.mu.Lock()
		rep, err := h.sensors.Deploy(h.sim.Time(), sensor.Spec{
			Pos:       v.Pos,
			Range:     v.Range,
			Period:    v.Period,
			Collector: v.Collector,
		})
		h.mu.Unlock()
		if err != nil {
			_ = sess.write(slp.Error{Code: slp.ErrObjectsForbidden, Message: err.Error()})
			return false
		}
		_ = sess.write(slp.ObjectReply{ObjectID: rep.ID, ExpiresAt: rep.ExpiresAt})
	case slp.Ping:
		_ = sess.write(slp.Pong{Seq: v.Seq, SimTime: h.clock.Load()})
	case slp.Logout:
		return true
	default:
		_ = sess.write(slp.Error{Code: slp.ErrBadRequest,
			Message: fmt.Sprintf("unexpected %s", msg.Type())})
	}
	return false
}

// maxAOIRadius is the largest useful area-of-interest radius for the
// hosted land: its diagonal. Every stored point is within the land, so
// any radius beyond the diagonal returns the same entities at strictly
// higher grid-visit cost; Subscribe clamps against it.
func (h *landHost) maxAOIRadius() float64 {
	size := h.sim.Scenario().Land.Size
	if size <= 0 {
		size = 256 // Second Life's default region edge
	}
	return size * math.Sqrt2
}

// stepLocked advances the host's per-second duties after a simulation
// step: it publishes the clock, scans sensors, and sends due
// subscription pushes. Called with the lock held, after any cross-region
// handoffs of the tick have settled, so monitors never observe an avatar
// mid-flight.
func (h *landHost) stepLocked(now int64) {
	h.clock.Store(now)
	h.sensors.Step(now, h.sim)
	for sess := range h.sessions {
		if sess.subTau > 0 && now >= sess.nextPush {
			sess.nextPush = now + sess.subTau
			h.pushMapLocked(sess)
		}
	}
}

// ensureSnapLocked returns the serving snapshot for the current tick,
// rebuilding the states buffer and AOI grid only when the tick advanced
// or an external-avatar change dirtied it. Every push of a tick — for
// any number of sessions — reads this one materialisation.
//
//slmob:hotpath
func (h *landHost) ensureSnapLocked() *mapSnap {
	snap := &h.snap
	now := h.sim.Time()
	if snap.built && snap.t == now && !snap.dirty {
		return snap
	}
	snap.states = h.sim.States(snap.states)
	if snap.grid == nil {
		snap.grid = geom.NewGrid(aoiGridCell)
	}
	snap.grid.Reset()
	for i := range snap.states {
		snap.grid.Insert(int64(i), snap.states[i].Pos)
	}
	snap.t = now
	snap.built = true
	snap.dirty = false
	// Frames encode lazily per shape; they must be fresh allocations each
	// rebuild because the previous tick's frames may still sit in session
	// backlogs.
	snap.coarse = nil
	snap.full = nil
	return snap
}

// coarseFrameLocked returns the tick's shared framed coarse MapReply —
// quantised positions, seated avatars at {0,0,0} — encoding it on first
// use. Returns nil when encoding fails; enqueueRaw turns that into a
// session close, as the old per-session write path did.
func (h *landHost) coarseFrameLocked(snap *mapSnap) []byte {
	if snap.coarse == nil {
		reply := slp.MapReply{SimTime: snap.t, Entries: make([]slp.MapEntry, 0, len(snap.states))}
		for _, st := range snap.states {
			pos := st.Pos
			if st.Seated {
				pos = geom.Vec{}
			}
			reply.Entries = append(reply.Entries, slp.MapEntry{ID: st.ID, Pos: pos})
		}
		frame, err := slp.EncodeFrame(reply)
		if err != nil {
			return nil
		}
		snap.coarse = frame
	}
	return snap.coarse
}

// fullFrameLocked returns the tick's shared framed MapReplyFull — exact
// positions, seated flag — for observer sessions. Entries keep the
// States order, so the observer wire bytes are identical to the old
// per-session encoding.
func (h *landHost) fullFrameLocked(snap *mapSnap) []byte {
	if snap.full == nil {
		reply := slp.MapReplyFull{SimTime: snap.t, Entries: make([]slp.FullEntry, 0, len(snap.states))}
		for _, st := range snap.states {
			reply.Entries = append(reply.Entries, slp.FullEntry{ID: st.ID, Pos: st.Pos, Seated: st.Seated})
		}
		frame, err := slp.EncodeFrame(reply)
		if err != nil {
			return nil
		}
		snap.full = frame
	}
	return snap.full
}

// pushMapLocked sends the land map to one session. Avatar sessions get
// the coarse quantised map with seated avatars at {0,0,0} — the
// authentic Second Life quirk, repaired downstream by monitors — either
// whole-land (a frame shared by every such subscriber) or filtered to
// the session's area of interest. Observer sessions get the
// measurement-grade full-resolution map with exact positions and the
// seated flag. The snapshot is taken under the lock; the network write
// happens on the session's writer goroutine, so a wedged subscriber
// costs the clock nothing: its queue fills and the session is dropped.
//
//slmob:hotpath
func (h *landHost) pushMapLocked(sess *session) {
	snap := h.ensureSnapLocked()
	switch {
	case sess.observer:
		sess.enqueueRaw(h.fullFrameLocked(snap))
	case sess.aoi > 0 || sess.delta:
		h.pushFilteredLocked(sess, snap)
	default:
		sess.enqueueRaw(h.coarseFrameLocked(snap))
	}
}

// pushFilteredLocked serves one AOI (and/or delta) avatar subscriber
// from the snapshot: the session's view is the ID-sorted, quantised set
// of entries within its radius of its avatar, answered by the grid
// rather than a land scan. Plain subscribers get the view as a MapReply;
// delta subscribers get a MapDelta against their previous view, with a
// keyframe every keyframeEvery pushes (or when needKey forces one) so a
// client that dropped a frame reconverges within one cadence interval.
//
//slmob:hotpath
func (h *landHost) pushFilteredLocked(sess *session, snap *mapSnap) {
	cur := sess.curView[:0]
	if sess.aoi > 0 {
		states := snap.states
		snap.grid.VisitWithin(sess.pos, sess.aoi, func(i int64, _ geom.Vec) bool {
			st := states[i]
			pos := st.Pos
			if st.Seated {
				pos = geom.Vec{}
			}
			cur = append(cur, slp.MapEntry{ID: st.ID, Pos: slp.QuantizePos(pos)})
			return true
		})
	} else {
		for _, st := range snap.states {
			pos := st.Pos
			if st.Seated {
				pos = geom.Vec{}
			}
			cur = append(cur, slp.MapEntry{ID: st.ID, Pos: slp.QuantizePos(pos)})
		}
	}
	// Views are diffed as sorted sets; the grid visits in cell order and
	// States in roster order, so sort unconditionally (insertion sort:
	// views are small or nearly sorted, and sort.Slice would box).
	sortEntriesByID(cur)
	sess.curView = cur

	if !sess.delta {
		sess.enqueueRaw(encodeViewFrame(snap.t, cur))
		return
	}
	sess.deltaSeq++
	d := slp.MapDelta{SimTime: snap.t, Seq: sess.deltaSeq}
	if sess.needKey || sess.sinceKey >= keyframeEvery {
		sess.needKey = false
		sess.sinceKey = 0
		d.Keyframe = true
		d.Updated = cur
	} else {
		sess.sinceKey++
		sess.updBuf, sess.remBuf = diffEntries(sess.prevView, cur, sess.updBuf[:0], sess.remBuf[:0])
		d.Updated = sess.updBuf
		d.Removed = sess.remBuf
	}
	// The just-built view becomes the baseline for the next diff; the old
	// baseline's storage is recycled as the next scratch view.
	sess.prevView, sess.curView = sess.curView, sess.prevView
	sess.enqueueRaw(encodeDeltaFrame(d))
}

// encodeViewFrame frames an AOI-filtered MapReply push. The entries are
// pre-quantised, and quantisation is idempotent on the wire (see
// slp.QuantizePos), so the client decodes exactly what an unquantised
// server-side view would have produced.
func encodeViewFrame(t int64, entries []slp.MapEntry) []byte {
	frame, err := slp.EncodeFrame(slp.MapReply{SimTime: t, Entries: entries})
	if err != nil {
		return nil
	}
	return frame
}

// encodeDeltaFrame frames one MapDelta push; nil on encoding failure.
func encodeDeltaFrame(d slp.MapDelta) []byte {
	frame, err := slp.EncodeFrame(d)
	if err != nil {
		return nil
	}
	return frame
}

// diffEntries merges two ID-sorted quantised views: upd collects every
// entry of cur that is new or moved since prev, rem every ID of prev
// absent from cur. Appends into (and returns) the supplied scratch
// slices, so steady-state diffing is allocation-free.
//
//slmob:hotpath
func diffEntries(prev, cur, upd []slp.MapEntry, rem []trace.AvatarID) ([]slp.MapEntry, []trace.AvatarID) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i].ID == cur[j].ID:
			if prev[i].Pos != cur[j].Pos {
				upd = append(upd, cur[j])
			}
			i++
			j++
		case prev[i].ID < cur[j].ID:
			rem = append(rem, prev[i].ID)
			i++
		default:
			upd = append(upd, cur[j])
			j++
		}
	}
	for ; i < len(prev); i++ {
		rem = append(rem, prev[i].ID)
	}
	for ; j < len(cur); j++ {
		upd = append(upd, cur[j])
	}
	return upd, rem
}

// sortEntriesByID sorts a view in place by avatar ID.
//
//slmob:hotpath
func sortEntriesByID(entries []slp.MapEntry) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && entries[j].ID > e.ID {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// relayChat forwards avatar chat to sessions whose avatar is in range.
// Called from Sim.Step with the lock held, mid-tick — the serving
// snapshot must NOT be rebuilt here (the step is still mutating
// positions), so range checks use each session's cached avatar
// position, which is exact: externals only ever move through
// MoveExternal. The event is framed once and the same bytes enqueued to
// every hearer.
func (h *landHost) relayChat(m world.ChatMessage) {
	var frame []byte
	for sess := range h.sessions {
		if sess.observer || sess.avatarID == m.From {
			continue
		}
		if sess.pos.DistXY(m.Pos) <= ChatRange {
			if frame == nil {
				f, err := slp.EncodeFrame(slp.ChatEvent{From: m.From, Pos: m.Pos, Text: m.Text})
				if err != nil {
					// Unreachable for admitted chat: the codec bounds
					// inbound Chat text at MaxChatText on decode, so the
					// re-framed event (text plus ~29 bytes of From/Pos)
					// always fits MaxPayload. Kept as a guard for future
					// message growth.
					return
				}
				frame = f
			}
			// enqueueRaw closes the session when its queue is full, so a
			// wedged client is dropped here instead of lingering silently
			// until its next map push.
			sess.enqueueRaw(frame)
		}
	}
}

func (sess *session) write(m slp.Message) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	_ = sess.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := slp.WriteMessage(sess.bw, m); err != nil {
		return err
	}
	return sess.bw.Flush()
}
