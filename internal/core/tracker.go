package core

import (
	"slices"

	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/trace"
)

// pairState tracks an ongoing or past contact between one pair. States
// live inline in the pair table's slots — no per-pair pointer is ever
// allocated. A pair's last-seen time is never stored: an open contact
// was last seen at the tracker's previous snapshot, and a closed one at
// its lastEnd.
type pairState struct {
	// start is the first snapshot time of the ongoing contact.
	start int64
	// lastEnd is the end time (last snapshot in range) of the pair's
	// previous completed contact, used to emit inter-contact times;
	// valid when hasPrev.
	lastEnd int64
	// inContact marks a contact in progress as of the previous snapshot.
	inContact bool
	// leftCensored marks a contact already in progress at the first trace
	// snapshot, whose true start is unknown.
	leftCensored bool
	hasPrev      bool
	// seen marks, during a full scan, a pair found in range; the scan's
	// closing walk over the table clears it.
	seen bool
}

// pairSlot is one open-addressing slot: a key plus its inline state. A
// normalised key has A < B, so the zero key marks an empty slot and a
// slot takes 40 bytes.
type pairSlot struct {
	key pairKey
	st  pairState
}

// used reports whether the slot holds a pair.
//
//slmob:hotpath
func (s *pairSlot) used() bool { return s.key != pairKey{} }

// pairTable is an open-addressed hash table over avatar pairs with
// linear probing. Pairs are only ever inserted (a pair's history feeds
// inter-contact times for the rest of the stream), so there is no
// tombstone machinery. Lookups and steady-state insertions allocate
// nothing; growth doubles the slot array at 3/4 load, on the first
// lookupOrInsert after the insertion that reached it. The layout is
// never serialised: checkpoints write pairs in key order.
type pairTable struct {
	slots []pairSlot
	mask  uint64
	n     int
}

const pairTableMinSize = 64

// newPairTable returns a table sized for pairs entries: the smallest
// power of two of at least pairTableMinSize slots that holds them under
// 3/4 load.
func newPairTable(pairs int) *pairTable {
	size := pairTableMinSize
	for pairs*4 >= size*3 {
		size *= 2
	}
	return &pairTable{slots: make([]pairSlot, size), mask: uint64(size - 1)}
}

// hash mixes both avatar IDs with a splitmix64-style finaliser.
//
//slmob:hotpath
func (pt *pairTable) hash(k pairKey) uint64 {
	h := uint64(k.A)*0x9e3779b97f4a7c15 ^ uint64(k.B)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// lookupOrInsert returns the slot index of k, inserting a fresh state if
// the pair is new. isNew reports the insertion. A grow may relocate every
// slot, so slot indices are valid only until the next call.
//
//slmob:hotpath
func (pt *pairTable) lookupOrInsert(k pairKey) (idx int, isNew bool) {
	if pt.n*4 >= len(pt.slots)*3 {
		pt.grow()
	}
	i := pt.hash(k) & pt.mask
	for {
		s := &pt.slots[i]
		if !s.used() {
			s.key = k
			s.st = pairState{}
			pt.n++
			return int(i), true
		}
		if s.key == k {
			return int(i), false
		}
		i = (i + 1) & pt.mask
	}
}

// find returns the slot index of k, or -1 when the pair is not in the
// table. It never grows the table.
//
//slmob:hotpath
func (pt *pairTable) find(k pairKey) int {
	i := pt.hash(k) & pt.mask
	for {
		s := &pt.slots[i]
		if !s.used() {
			return -1
		}
		if s.key == k {
			return int(i)
		}
		i = (i + 1) & pt.mask
	}
}

func (pt *pairTable) grow() {
	old := pt.slots
	pt.slots = make([]pairSlot, len(old)*2)
	pt.mask = uint64(len(pt.slots) - 1)
	for i := range old {
		if !old[i].used() {
			continue
		}
		j := pt.hash(old[i].key) & pt.mask
		for pt.slots[j].used() {
			j = (j + 1) & pt.mask
		}
		pt.slots[j] = old[i]
	}
}

// contactTracker is the per-range contact state machine shared by the
// single-land Analyzer, the batch ExtractContacts, and the estate-global
// analysis: it folds one proximity graph per snapshot into running
// CT/ICT/FT distributions. A contact starts when its pair's edge is
// linked and ends when it is unlinked, so the tracker is driven by the
// graph workspace's edge changes (graph.Workspace.EdgeChanges): the pair
// table is probed once per change, not once per edge, and a first
// contact — which can only start with a pair never seen before — costs
// a first-contact probe only then. A snapshot whose graph was rebuilt
// rather than patched (the first one, a range change, a churn fallback,
// a FromPositions build, the first build after a checkpoint restore)
// has no changes to read; the tracker then scans every edge, marking
// the pairs in range, and ends the open contacts it did not mark. That
// scan is what carries contacts open across a rebuild. Pair states live
// inline in an open-addressed table and every path is allocation-free
// at steady state.
//
// The tracker is the state-machine half of the metric; the event sink is
// the ContactSet bound with bind(). Every completed event — a contact
// duration, an inter-contact gap, a first-contact wait, a new pair, a
// censored interval — is emitted into the currently bound sink at the
// snapshot at which it resolves, which is what lets windowed analytics
// swap sinks at window boundaries and still have the merged windows
// reproduce the whole-trace distributions bit-identically.
type contactTracker struct {
	tau int64
	// lastT is the time of the latest observed snapshot: the last-seen
	// time of every open contact.
	lastT int64
	// open counts the contacts in progress.
	open         int
	table        *pairTable
	firstContact map[trace.AvatarID]int64
	cs           *ContactSet
}

func newContactTracker(tau int64) *contactTracker {
	return &contactTracker{
		tau:          tau,
		table:        newPairTable(0),
		firstContact: make(map[trace.AvatarID]int64),
	}
}

// bind points the tracker's event emission at cs. Events already emitted
// stay where they were — binding is how a window rollover redirects the
// remainder of the stream into a fresh accumulator.
func (c *contactTracker) bind(cs *ContactSet) { c.cs = cs }

// observe advances the state machine with the latest graph ws built over
// the avatars ids at snapshot time t. ws must be the workspace whose
// every build this tracker has observed, so that its edge changes are
// changes since the tracker's previous snapshot. fsT holds each avatar's
// first-seen time, aligned with ids, so first-contact waits are emitted
// the moment the first contact happens. first marks the stream's first
// snapshot, whose ongoing contacts are left-censored.
//
//slmob:hotpath
func (c *contactTracker) observe(ids []trace.AvatarID, fsT []int64, ws *graph.Workspace, t int64, first bool) {
	if added, removed, ok := ws.EdgeChanges(); ok {
		c.apply(ids, fsT, added, removed, t)
	} else {
		c.scan(ids, fsT, ws.Graph(), t, first)
	}
	c.lastT = t
}

// scan folds a snapshot by visiting every edge of g: pairs in range are
// marked seen, those not yet in contact start one, and open contacts
// left unmarked end.
//
//slmob:hotpath
func (c *contactTracker) scan(ids []trace.AvatarID, fsT []int64, g *graph.Graph, t int64, first bool) {
	for i := range ids {
		if g.Degree(i) > 0 {
			c.touch(ids[i], fsT[i], t)
		}
		for _, j := range g.Neighbors(i) {
			if int(j) <= i {
				continue
			}
			idx, isNew := c.table.lookupOrInsert(makePair(ids[i], ids[int(j)]))
			if isNew {
				c.cs.Pairs++
			}
			st := &c.table.slots[idx].st
			st.seen = true
			if !st.inContact {
				c.begin(st, t, first)
			}
		}
	}
	// Scans follow rebuilds only, so walking the whole table for the
	// unmarked open contacts is rare.
	for i := range c.table.slots {
		switch st := &c.table.slots[i].st; {
		case st.seen:
			st.seen = false
		case st.inContact:
			c.end(st)
		}
	}
}

// apply folds a snapshot from the edge changes since the previous one:
// every removed edge ends its pair's contact and every added edge starts
// one. An added edge of a pair never seen before inserts the pair, counts
// it and records its endpoints' first contacts. Only per-pair state
// matters; where a pair lands in the table does not.
//
//slmob:hotpath
func (c *contactTracker) apply(ids []trace.AvatarID, fsT []int64, added []graph.Link, removed []graph.Unlink, t int64) {
	for _, e := range removed {
		idx := c.table.find(makePair(trace.AvatarID(e.A), trace.AvatarID(e.B)))
		c.end(&c.table.slots[idx].st)
	}
	for _, e := range added {
		idx, isNew := c.table.lookupOrInsert(makePair(ids[e.U], ids[e.V]))
		if isNew {
			c.cs.Pairs++
			c.touch(ids[e.U], fsT[e.U], t)
			c.touch(ids[e.V], fsT[e.V], t)
		}
		c.begin(&c.table.slots[idx].st, t, false)
	}
}

// touch records avatar id's first contact at t, emitting its
// first-contact wait, unless it has had one before.
//
//slmob:hotpath
func (c *contactTracker) touch(id trace.AvatarID, fs, t int64) {
	if _, ok := c.firstContact[id]; !ok {
		c.firstContact[id] = t
		c.cs.FT.Add(float64(t - fs))
	}
}

// begin starts a contact at t, emitting the inter-contact gap since the
// pair's previous contact.
//
//slmob:hotpath
func (c *contactTracker) begin(st *pairState, t int64, first bool) {
	st.inContact = true
	st.start = t
	st.leftCensored = first
	if st.hasPrev {
		c.cs.ICT.Add(float64(t - st.lastEnd))
	}
	c.open++
}

// end closes an open contact that was last in range at the previous
// snapshot, emitting its duration, or counting it as censored when its
// start is unknown.
//
//slmob:hotpath
func (c *contactTracker) end(st *pairState) {
	if st.leftCensored {
		c.cs.Censored++
	} else {
		c.cs.CT.Add(float64(c.lastT - st.start + c.tau))
	}
	st.lastEnd = c.lastT
	st.hasPrev = true
	st.inContact = false
	st.leftCensored = false
	c.open--
}

// finish right-censors contacts still open at the end of the stream and
// derives the never-contacted count from the stream's total population,
// emitting both into the currently bound sink (the final window).
// totalSeen is the number of distinct avatars ever observed.
func (c *contactTracker) finish(totalSeen int) *ContactSet {
	c.cs.Censored += c.open
	if n := totalSeen - len(c.firstContact); n > 0 {
		c.cs.NeverContacted += n
	}
	return c.cs
}

// tripTracker is the per-avatar sessionisation state machine shared by
// the single-land Analyzer and the estate-global analysis: an avatar
// absent longer than the session gap logs out and back in; displacement
// above moveEps between consecutive samples counts as movement. Closed
// sessions are appended to the bound output list (*out) at the snapshot
// their closure is detected — the window-attribution point.
type tripTracker struct {
	moveEps float64
	gap     int64
	open    map[trace.AvatarID]*sessionState
	out     *[]closedSession
}

func newTripTracker(moveEps float64, gap int64, out *[]closedSession) *tripTracker {
	return &tripTracker{
		moveEps: moveEps,
		gap:     gap,
		open:    make(map[trace.AvatarID]*sessionState),
		out:     out,
	}
}

// bind redirects closed-session emission, the trip analogue of
// contactTracker.bind.
func (tt *tripTracker) bind(out *[]closedSession) { tt.out = out }

// observe folds one avatar sample at snapshot time t into the tracker.
// Seated samples keep the session alive but contribute no movement.
// Session (re)creation allocates, but only on login/relogin, never at
// per-sample steady state.
//
//slmob:hotpath
func (tt *tripTracker) observe(id trace.AvatarID, pos geom.Vec, seated bool, t int64) {
	ss := tt.open[id]
	if ss != nil && t-ss.last > tt.gap {
		tt.closeSession(id, ss)
		*ss = sessionState{login: t}
	}
	if ss == nil {
		ss = &sessionState{login: t}
		tt.open[id] = ss
	}
	ss.last = t
	if seated {
		return
	}
	if ss.hasPrev {
		d := pos.DistXY(ss.prevPos)
		ss.length += d
		if d > tt.moveEps {
			ss.moving += t - ss.prevT
		}
	}
	ss.hasPrev = true
	ss.prevPos = pos
	ss.prevT = t
}

// closeSession emits one finished session into the bound output. The
// append is self-amortising: the closed-session buffer is recycled
// across windows.
//
//slmob:hotpath
func (tt *tripTracker) closeSession(id trace.AvatarID, ss *sessionState) {
	*tt.out = append(*tt.out, closedSession{
		id:       id,
		login:    ss.login,
		duration: ss.last - ss.login,
		length:   ss.length,
		moving:   ss.moving,
	})
}

// closeAll closes every open session into the bound output — the
// end-of-stream flush feeding the final window. Sessions close in
// ascending avatar order: the flush feeds the checkpointed closed-
// session slice, and map iteration order must never reach serialized
// state.
func (tt *tripTracker) closeAll() {
	for _, id := range sortedKeys(tt.open) {
		tt.closeSession(id, tt.open[id])
	}
}

// buildTripStats sorts the closed sessions into the batch path's order
// (login time, then avatar ID) and fills ts, reusing its slices. The
// session records themselves are retained (copied) as merge keys, so
// window TripStats can be re-merged into the whole-trace ordering.
func buildTripStats(closed []closedSession, ts *TripStats) *TripStats {
	if ts == nil {
		ts = &TripStats{}
	}
	slices.SortFunc(closed, func(a, b closedSession) int {
		if a.login != b.login {
			if a.login < b.login {
				return -1
			}
			return 1
		}
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return 0
	})
	ts.TravelTime = ts.TravelTime[:0]
	ts.TravelLength = ts.TravelLength[:0]
	ts.EffectiveTravelTime = ts.EffectiveTravelTime[:0]
	ts.sess = append(ts.sess[:0], closed...)
	for _, cs := range closed {
		ts.TravelTime = append(ts.TravelTime, float64(cs.duration))
		ts.TravelLength = append(ts.TravelLength, cs.length)
		ts.EffectiveTravelTime = append(ts.EffectiveTravelTime, float64(cs.moving))
	}
	return ts
}
