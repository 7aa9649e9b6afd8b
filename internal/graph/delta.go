package graph

import (
	"math"

	"slmob/internal/geom"
)

// DefaultChurnThreshold is the moved+arrived+departed fraction of the
// population above which ApplyPositions abandons the incremental patch
// and rebuilds from scratch. Measured with slbench -churn-sweep: the
// incremental path stays profitable well past half the population
// changing per snapshot (the patch touches only dirty neighbourhoods,
// while a rebuild re-queries everyone), and above that the two paths
// cost about the same — so the fallback exists to bound the worst case,
// not to win the average one.
const DefaultChurnThreshold = 0.75

// WorkspaceStats counts how the incremental engine served a workspace's
// build calls — the observability feed behind slbench's incremental-hit
// report. Counters only ever increase; Add folds another workspace's
// counters in, so per-range and per-region workspaces aggregate.
type WorkspaceStats struct {
	// Snapshots counts ApplyPositions calls.
	Snapshots int64
	// Incremental counts snapshots served by the delta path.
	Incremental int64
	// FullRebuilds counts snapshots that rebuilt from scratch: the first
	// snapshot, range changes, churn-fallback triggers, and builds after
	// a FromPositions invalidated the state.
	FullRebuilds int64
	// Moved / Arrived / Departed count per-avatar diff outcomes across
	// all diffed snapshots (fallback snapshots included — the diff is
	// what decides the fallback).
	Moved    int64
	Arrived  int64
	Departed int64
	// EdgesAdded / EdgesRemoved count the edges the delta path actually
	// added and removed — an avatar that moved without gaining or losing
	// a neighbour changes neither; they sum the lengths of EdgeChanges'
	// lists. Scratch rebuilds are not counted: the rates describe
	// incremental work.
	EdgesAdded   int64
	EdgesRemoved int64
	// DiamReused / DiamComputed count Diameter calls answered from the
	// component cache vs recomputed.
	DiamReused   int64
	DiamComputed int64
	// CCComputed counts, per MeanClustering call, the vertices whose
	// degree or triangle count changed since the previous call (every
	// vertex after a rebuild); CCReused counts the rest. Every
	// coefficient is an O(1) quotient of the maintained triangle count,
	// so the split measures how much of the graph moved, not work saved.
	CCReused   int64
	CCComputed int64
}

// Add folds another stats block into st.
func (st *WorkspaceStats) Add(o WorkspaceStats) {
	st.Snapshots += o.Snapshots
	st.Incremental += o.Incremental
	st.FullRebuilds += o.FullRebuilds
	st.Moved += o.Moved
	st.Arrived += o.Arrived
	st.Departed += o.Departed
	st.EdgesAdded += o.EdgesAdded
	st.EdgesRemoved += o.EdgesRemoved
	st.DiamReused += o.DiamReused
	st.DiamComputed += o.DiamComputed
	st.CCReused += o.CCReused
	st.CCComputed += o.CCComputed
}

// Stats returns a copy of the workspace's incremental-engine counters.
func (ws *Workspace) Stats() WorkspaceStats { return ws.stats }

// SetChurnThreshold overrides the churn fraction above which
// ApplyPositions falls back to a full rebuild. Zero restores
// DefaultChurnThreshold; a negative value forces a rebuild on every call
// (the parity-test configuration); 1 or more disables the fallback.
func (ws *Workspace) SetChurnThreshold(t float64) { ws.d.thresh = t }

// Link is an edge a patching ApplyPositions call added, named by the
// current indices of its endpoints.
type Link struct{ U, V int32 }

// Unlink is an edge a patching ApplyPositions call removed, named by the
// ids of its endpoints as they were when the edge went: a departed
// avatar has no current index, and its slot may be handed to an arrival
// within the same call.
type Unlink struct{ A, B uint64 }

// EdgeChanges returns the edges the latest build call added and removed
// relative to the graph of the call before it; each edge appears at most
// once, in one list. ok is false when that build did not patch the
// previous graph — the first ApplyPositions call, a range change, a churn
// fallback, and every FromPositions call and the ApplyPositions call
// after one — and a caller tracking edges must then compare the new
// graph against its own record. The slices alias workspace buffers that
// the next build call overwrites.
func (ws *Workspace) EdgeChanges() (added []Link, removed []Unlink, ok bool) {
	return ws.d.links, ws.d.unlinks, ws.d.events
}

// deltaState is the temporal-coherence state ApplyPositions keeps between
// snapshots. Avatars live in stable slots so that identity survives the
// index reshuffling of arrivals and departures: the grid, the slot-space
// adjacency, the triangle counts and the diameter cache are keyed by
// slot, and each call translates the patched slot-space graph into the
// workspace's index-space CSR arena.
type deltaState struct {
	ok     bool    // the latest build came through ApplyPositions; slot state mirrors it
	events bool    // the latest build patched the previous graph; links/unlinks hold the change
	r      float64 // communication range the state is keyed to
	thresh float64 // churn fallback threshold; 0 selects the default
	epoch  int64   // ApplyPositions call counter, for generation stamps

	grid *geom.Grid // persistent grid over live slots, patched in place

	idOf map[uint64]int32 // avatar id -> slot
	id   []uint64         // slot -> avatar id
	pos  []geom.Vec       // slot -> last observed position
	nbr  [][]int32        // slot-space adjacency, unordered
	tri  []int32          // slot -> edges among its neighbours (triangles through it)
	seen []int64          // slot -> epoch last present (departure detection)
	chg  []int64          // slot -> epoch its degree or triangle count last changed
	free []int32          // recyclable slots
	live []int32          // slots present in the previous snapshot

	slotOf []int32 // current index -> slot
	idxOf  []int32 // slot -> current index

	// Diameter cache: a slot's flag is cleared whenever an edge incident
	// to it is added or removed.
	diam   []int32 // slot -> diameter of its component when last cached
	diamOK []bool
	// ccEpoch is the epoch of the latest MeanClustering call; vertices
	// with chg > ccEpoch count as CCComputed.
	ccEpoch int64

	// Edge-diff membership stamps for the slot s being patched:
	// inN[o] == stamp iff o ∈ nbr[s], inNew[o] == stamp iff o is within
	// range of s. A fresh stamp per patched slot clears both in O(1).
	stamp int32
	inN   []int32
	inNew []int32

	// Edge changes of the latest patching build (EdgeChanges).
	links   []Link
	unlinks []Unlink

	// Per-call scratch.
	departed []int32
	arrived  []int32 // current indices of new avatars
	moved    []int32 // current indices of avatars whose (X, Y) changed
	cand     []int32 // neighbours within range of the slot being patched
}

// ApplyPositions builds the same proximity graph FromPositions builds —
// identical vertex indexing, identical edge set — by diffing the snapshot
// against the previous ApplyPositions call and patching only what
// changed: avatars whose ground-plane position moved, arrivals, and
// departures. ids[i] is the stable identity of the avatar at ps[i]; ids
// must be unique within a call. When the churn fraction exceeds the
// threshold (SetChurnThreshold), or on the first call, a range change, or
// after a FromPositions call, it rebuilds from empty slot state instead,
// so the worst case never exceeds a scratch build.
//
// Adjacency-list order may differ from FromPositions, but every metric
// the pipeline derives — degrees, diameter, clustering, contact pairs —
// depends only on the edge set and is bit-identical between the two
// builders. The returned graph is invalidated by the next build call.
//
//slmob:hotpath
func (ws *Workspace) ApplyPositions(ids []uint64, ps []geom.Vec, r float64) *Graph {
	if len(ids) != len(ps) {
		panic("graph: ApplyPositions ids/positions length mismatch")
	}
	ws.stats.Snapshots++
	d := &ws.d
	if r <= 0 {
		// Degenerate range: no edges ever; the scratch builder handles it
		// (and invalidates the delta state).
		ws.stats.FullRebuilds++
		return ws.FromPositions(ps, r)
	}
	d.epoch++
	rebuild := !d.ok || d.r != r
	if !rebuild {
		d.diff(ids, ps)
		ws.stats.Moved += int64(len(d.moved))
		ws.stats.Arrived += int64(len(d.arrived))
		ws.stats.Departed += int64(len(d.departed))

		// Churn heuristic: beyond the threshold a rebuild costs less than
		// patching nearly everyone's neighbourhood.
		base := len(ids)
		if p := len(d.live); p > base {
			base = p
		}
		changed := len(d.moved) + len(d.arrived) + len(d.departed)
		thresh := d.thresh
		if thresh == 0 {
			thresh = DefaultChurnThreshold
		}
		rebuild = thresh < 0 || float64(changed) > thresh*float64(base)
	}
	d.links = d.links[:0]
	d.unlinks = d.unlinks[:0]
	d.events = !rebuild
	if rebuild {
		// A rebuild is the same patch from empty state: every avatar
		// arrives, so slot == index and every edge is linked afresh. Its
		// edges are not recorded as changes.
		ws.stats.FullRebuilds++
		d.reset(r)
		d.diff(ids, ps)
	} else {
		ws.stats.Incremental++
	}
	ws.patch(ids, ps, r)
	ws.stats.EdgesAdded += int64(len(d.links))
	ws.stats.EdgesRemoved += int64(len(d.unlinks))
	ws.translate(len(ids))
	return &ws.g
}

// reset empties the slot state — no avatars, no edges, every slot free
// with the lowest on top, so a rebuild's arrivals get slot == index —
// and rekeys it to range r. Buffers are kept.
//
//slmob:hotpath
func (d *deltaState) reset(r float64) {
	d.r = r
	if d.idOf == nil {
		d.idOf = make(map[uint64]int32)
	}
	clear(d.idOf)
	d.free = d.free[:0]
	for s := len(d.id) - 1; s >= 0; s-- {
		d.nbr[s] = d.nbr[s][:0]
		d.tri[s] = 0
		d.diamOK[s] = false
		d.free = append(d.free, int32(s))
	}
	d.live = d.live[:0]
	if d.grid == nil || d.grid.CellSize() != r {
		d.grid = geom.NewGrid(r)
	} else {
		d.grid.Reset()
	}
	d.ok = true
}

// diff classifies the snapshot against the slot state: every avatar is
// unchanged, moved, or arrived, and every previously live slot not seen
// this epoch has departed.
//
//slmob:hotpath
func (d *deltaState) diff(ids []uint64, ps []geom.Vec) {
	n := len(ids)
	d.slotOf = growInt32(d.slotOf, n)
	d.moved = d.moved[:0]
	d.arrived = d.arrived[:0]
	d.departed = d.departed[:0]
	for i := 0; i < n; i++ {
		s, ok := d.idOf[ids[i]]
		if !ok {
			d.slotOf[i] = -1
			d.arrived = append(d.arrived, int32(i))
			continue
		}
		d.slotOf[i] = s
		d.seen[s] = d.epoch
		d.idxOf[s] = int32(i)
		if p := ps[i]; p.X != d.pos[s].X || p.Y != d.pos[s].Y {
			d.moved = append(d.moved, int32(i))
		}
	}
	for _, s := range d.live {
		if d.seen[s] != d.epoch {
			d.departed = append(d.departed, s)
		}
	}
}

// patch applies the diff to the slot state. Departures lose their edges
// and their slot; arrivals take a slot; the grid is brought fully up to
// date before any neighbourhood is queried, so the edge predicate is
// fixed and each arrival's and mover's edge diff is final whatever the
// order — a pair of two dirty slots is settled by whichever is patched
// first and is a no-op for the other.
//
//slmob:hotpath
func (ws *Workspace) patch(ids []uint64, ps []geom.Vec, r float64) {
	d := &ws.d
	d.cand = d.cand[:0]
	for _, s := range d.departed {
		ws.diffSlot(s) // against the empty candidate set: unlink everything
		d.diamOK[s] = false
		d.grid.Remove(int64(s), d.pos[s])
		delete(d.idOf, d.id[s])
		d.free = append(d.free, s)
	}
	for _, i := range d.arrived {
		s := d.allocSlot()
		d.id[s] = ids[i]
		d.idOf[ids[i]] = s
		d.pos[s] = ps[i]
		d.seen[s] = d.epoch
		d.chg[s] = d.epoch
		d.slotOf[i] = s
		d.idxOf[s] = i
		d.grid.Insert(int64(s), ps[i])
	}
	for _, i := range d.moved {
		s := d.slotOf[i]
		d.grid.Move(int64(s), d.pos[s], ps[i])
		d.pos[s] = ps[i]
	}
	d.live = d.live[:0]
	for i := range ids {
		d.live = append(d.live, d.slotOf[i])
	}
	for _, i := range d.arrived {
		ws.relinkSlot(d.slotOf[i], r)
	}
	for _, i := range d.moved {
		ws.relinkSlot(d.slotOf[i], r)
	}
}

// translate rewrites the slot-space adjacency of the n current avatars
// into the index-space CSR arena and points ws.g at it.
//
//slmob:hotpath
func (ws *Workspace) translate(n int) {
	d := &ws.d
	if cap(ws.adj) < n {
		ws.adj = make([][]int32, n, n+n/2+8)
	}
	ws.adj = ws.adj[:n]
	ws.off = growInt32(ws.off, n+1)
	ws.off[0] = 0
	m2 := int32(0)
	for i := 0; i < n; i++ {
		m2 += int32(len(d.nbr[d.slotOf[i]]))
		ws.off[i+1] = m2
	}
	ws.arena = growInt32(ws.arena, int(m2))
	for i := 0; i < n; i++ {
		base := int(ws.off[i])
		for k, o := range d.nbr[d.slotOf[i]] {
			ws.arena[base+k] = d.idxOf[o]
		}
		ws.adj[i] = ws.arena[ws.off[i]:ws.off[i+1]:ws.off[i+1]]
	}
	ws.g = Graph{adj: ws.adj, m: int(m2) / 2}
}

// ensureSlots grows every slot-indexed table to at least n entries,
// preserving existing slots.
//
//slmob:hotpath
func (d *deltaState) ensureSlots(n int) {
	for len(d.id) < n {
		d.id = append(d.id, 0)
		d.pos = append(d.pos, geom.Vec{})
		d.nbr = append(d.nbr, nil)
		d.tri = append(d.tri, 0)
		d.seen = append(d.seen, 0)
		d.chg = append(d.chg, 0)
		d.idxOf = append(d.idxOf, -1)
		d.diam = append(d.diam, 0)
		d.diamOK = append(d.diamOK, false)
		d.inN = append(d.inN, 0)
		d.inNew = append(d.inNew, 0)
	}
}

// allocSlot hands out a recycled slot, or a fresh one when the free list
// is empty. Every free slot has no edges, no triangles and a cleared
// diameter flag: fresh slots by construction, recycled ones because their
// departure unlinked them.
//
//slmob:hotpath
func (d *deltaState) allocSlot() int32 {
	if k := len(d.free); k > 0 {
		s := d.free[k-1]
		d.free = d.free[:k-1]
		return s
	}
	s := int32(len(d.id))
	d.ensureSlots(len(d.id) + 1)
	return s
}

// nextStamp returns a membership stamp no inN/inNew entry holds yet. On
// int32 wrap-around both tables are cleared, so stale entries can never
// collide with a live stamp.
//
//slmob:hotpath
func (d *deltaState) nextStamp() int32 {
	if d.stamp == math.MaxInt32 {
		clear(d.inN)
		clear(d.inNew)
		d.stamp = 0
	}
	d.stamp++
	return d.stamp
}

// relinkSlot collects the slots within range of s from the patched grid
// and diffs s's adjacency against them.
//
//slmob:hotpath
func (ws *Workspace) relinkSlot(s int32, r float64) {
	d := &ws.d
	d.cand = d.cand[:0]
	d.grid.VisitWithin(d.pos[s], r, func(oid int64, _ geom.Vec) bool {
		if o := int32(oid); o != s {
			d.cand = append(d.cand, o)
		}
		return true
	})
	ws.diffSlot(s)
}

// diffSlot makes s's neighbour set equal to d.cand, unlinking the edges
// that left it and linking the ones that joined; edges present in both
// are not touched, so their endpoints keep their triangle counts and
// diameter flags. On a patching build every change is also recorded for
// EdgeChanges: s and every live o have current indices by now, and a
// departing s still holds its id.
//
//slmob:hotpath
func (ws *Workspace) diffSlot(s int32) {
	d := &ws.d
	st := d.nextStamp()
	for _, o := range d.nbr[s] {
		d.inN[o] = st
	}
	for _, o := range d.cand {
		d.inNew[o] = st
	}
	for k := 0; k < len(d.nbr[s]); {
		o := d.nbr[s][k]
		if d.inNew[o] == st {
			k++
			continue
		}
		d.inN[o] = 0
		ws.shiftTriangles(s, o, st, -1)
		last := len(d.nbr[s]) - 1
		d.nbr[s][k] = d.nbr[s][last]
		d.nbr[s] = d.nbr[s][:last]
		lst := d.nbr[o]
		for j := range lst {
			if lst[j] == s {
				last := len(lst) - 1
				lst[j] = lst[last]
				d.nbr[o] = lst[:last]
				break
			}
		}
		if d.events {
			d.unlinks = append(d.unlinks, Unlink{A: d.id[s], B: d.id[o]})
		}
	}
	for _, o := range d.cand {
		if d.inN[o] == st {
			continue
		}
		ws.shiftTriangles(s, o, st, 1)
		d.nbr[s] = append(d.nbr[s], o)
		d.nbr[o] = append(d.nbr[o], s)
		d.inN[o] = st
		if d.events {
			d.links = append(d.links, Link{U: d.idxOf[s], V: d.idxOf[o]})
		}
	}
}

// shiftTriangles accounts for adding (delta = 1) or removing (delta = -1)
// the edge {s, o}: every common neighbour w closes or opens the triangle
// {s, o, w}, so w gains or loses one triangle and s and o one each per
// common neighbour. inN must stamp s's neighbours other than o with st.
// Both endpoints' degrees change, so both are marked changed and lose
// their diameter flags.
//
//slmob:hotpath
func (ws *Workspace) shiftTriangles(s, o, st, delta int32) {
	d := &ws.d
	common := int32(0)
	for _, w := range d.nbr[o] {
		if d.inN[w] == st {
			common++
			d.tri[w] += delta
			d.chg[w] = d.epoch
		}
	}
	d.tri[s] += delta * common
	d.tri[o] += delta * common
	d.chg[s] = d.epoch
	d.chg[o] = d.epoch
	d.diamOK[s] = false
	d.diamOK[o] = false
}

// deltaDiameter answers Diameter for an ApplyPositions-built graph:
// ws.best already holds the largest component (current indices). When
// every member's slot carries a valid cached diameter, the component is
// unchanged since the cache was filled — adding or removing any edge
// clears both endpoints' flags, so every split, merge or departure
// clears at least one member's — and the cached value is returned.
// Otherwise the bounded-eccentricity search runs and refills the cache.
//
//slmob:hotpath
func (ws *Workspace) deltaDiameter() int {
	d := &ws.d
	for _, u := range ws.best {
		if !d.diamOK[d.slotOf[u]] {
			ws.stats.DiamComputed++
			diam := ws.eccDiameter()
			for _, u := range ws.best {
				s := d.slotOf[u]
				d.diam[s] = diam
				d.diamOK[s] = true
			}
			return int(diam)
		}
	}
	ws.stats.DiamReused++
	return int(d.diam[d.slotOf[ws.best[0]]])
}

// deltaMeanClustering answers MeanClustering for an ApplyPositions-built
// graph from the maintained triangle counts: vertex u's coefficient is
// 2·tri/(k(k−1)), the same integer link count over the same expression
// Graph.LocalClustering evaluates, summed in the same index order, so the
// result is bit-identical to Graph.MeanClustering in O(n).
//
//slmob:hotpath
func (ws *Workspace) deltaMeanClustering() float64 {
	g := &ws.g
	n := len(g.adj)
	if n == 0 {
		return 0
	}
	d := &ws.d
	sum := 0.0
	for u := 0; u < n; u++ {
		s := d.slotOf[u]
		if d.chg[s] > d.ccEpoch {
			ws.stats.CCComputed++
		} else {
			ws.stats.CCReused++
		}
		c := 0.0
		if k := len(g.adj[u]); k >= 2 {
			c = 2 * float64(d.tri[s]) / float64(k*(k-1))
		}
		sum += c
	}
	d.ccEpoch = d.epoch
	return sum / float64(n)
}
