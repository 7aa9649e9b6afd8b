package graph

import (
	"math"

	"slmob/internal/geom"
)

// Workspace owns every buffer the snapshot-rate graph pipeline needs —
// the spatial grid, a flat CSR-style adjacency arena, and the BFS
// distance/queue/component scratch — so that building a proximity graph
// and computing its diameter and clustering performs zero heap
// allocations per snapshot once the buffers have warmed up to the
// population size. One Workspace serves one goroutine and one
// communication range at a time; it is not safe for concurrent use.
//
// Two build modes share the storage. FromPositions rebuilds the graph
// from scratch every call; ApplyPositions (delta.go) diffs the snapshot
// against the previous one and applies only the edges that changed,
// maintaining per-vertex triangle counts and reusing the largest
// component's diameter while it is untouched. Both modes produce graphs
// with identical edge sets, and every metric computed from them —
// degrees, diameter, clustering — is bit-identical between the two.
//
// The *Graph returned by FromPositions or ApplyPositions aliases the
// workspace's arena and is valid only until the next build call.
type Workspace struct {
	grid     *geom.Grid
	gridCell float64

	pairs []int32   // flat (u, v) pair list, two entries per edge
	off   []int32   // CSR offsets, n+1 entries
	cur   []int32   // fill cursors during CSR construction
	arena []int32   // flat neighbour storage
	adj   [][]int32 // per-vertex views into arena
	g     Graph     // the reusable graph header handed back to callers

	// BFS / component scratch for Diameter.
	dist  []int32
	queue []int32
	seen  []bool
	comp  []int32 // current component under construction
	best  []int32 // largest component seen so far
	// Eccentricity bounds and the unsettled members for eccDiameter.
	eccLo []int32
	eccHi []int32
	open  []int32

	// Incremental (temporal-coherence) state for ApplyPositions.
	d     deltaState
	stats WorkspaceStats
}

// NewWorkspace returns an empty workspace. Buffers grow on demand and are
// retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// growInt32 returns buf resized to n, preserving the live prefix when a
// reallocation is needed — callers like the delta path's slot tables rely
// on existing entries surviving population growth.
//
//slmob:hotpath
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		nb := make([]int32, n, n+n/2+8)
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

// FromPositions builds the line-of-sight proximity graph over the given
// positions at range r into the workspace's reusable storage. It produces
// exactly the graph the package-level FromPositions builds — identical
// adjacency lists in identical order — without the per-snapshot
// allocations. The returned graph is invalidated by the next call.
//
// FromPositions discards any incremental state: a subsequent
// ApplyPositions starts from a full rebuild.
//
//slmob:hotpath
func (ws *Workspace) FromPositions(ps []geom.Vec, r float64) *Graph {
	ws.d.ok = false
	ws.d.events = false
	n := len(ps)
	if cap(ws.adj) < n {
		ws.adj = make([][]int32, n, n+n/2+8)
	}
	ws.adj = ws.adj[:n]
	ws.g = Graph{adj: ws.adj}
	if r <= 0 || n < 2 {
		for i := range ws.adj {
			ws.adj[i] = nil
		}
		return &ws.g
	}

	// The pooled grid is keyed to the query radius; a workspace is
	// typically dedicated to one communication range, so this rebuilds
	// only when the range actually changes.
	if ws.grid == nil || ws.gridCell != r {
		ws.grid = geom.NewGrid(r)
		ws.gridCell = r
	} else {
		ws.grid.Reset()
	}
	for i, p := range ps {
		ws.grid.Insert(int64(i), p)
	}

	// Pass 1: collect each unordered pair once, from its lower endpoint,
	// in the same order the incremental builder emits edges.
	ws.pairs = ws.pairs[:0]
	for i, p := range ps {
		ws.grid.VisitWithin(p, r, func(id int64, _ geom.Vec) bool {
			if j := int32(id); int(j) > i {
				ws.pairs = append(ws.pairs, int32(i), j)
			}
			return true
		})
	}
	ws.buildCSR(n)
	return &ws.g
}

// buildCSR counting-sorts ws.pairs into the CSR arena and points ws.g at
// the result. cur doubles as the degree accumulator before the prefix sum
// turns it into fill cursors.
//
//slmob:hotpath
func (ws *Workspace) buildCSR(n int) {
	ws.off = growInt32(ws.off, n+1)
	ws.cur = growInt32(ws.cur, n)
	for i := range ws.cur {
		ws.cur[i] = 0
	}
	for _, v := range ws.pairs {
		ws.cur[v]++
	}
	ws.off[0] = 0
	for i := 0; i < n; i++ {
		ws.off[i+1] = ws.off[i] + ws.cur[i]
		ws.cur[i] = ws.off[i]
	}
	ws.arena = growInt32(ws.arena, len(ws.pairs))
	for k := 0; k < len(ws.pairs); k += 2 {
		u, v := ws.pairs[k], ws.pairs[k+1]
		ws.arena[ws.cur[u]] = v
		ws.cur[u]++
		ws.arena[ws.cur[v]] = u
		ws.cur[v]++
	}
	for i := 0; i < n; i++ {
		ws.adj[i] = ws.arena[ws.off[i]:ws.off[i+1]:ws.off[i+1]]
	}
	ws.g.m = len(ws.pairs) / 2
}

// Diameter computes the longest shortest path within the largest
// connected component of the workspace's current graph — the same value
// Graph.Diameter returns — with a bounded-eccentricity search over the
// shared BFS buffers (see eccDiameter). After an ApplyPositions build it
// reuses the previous result when the largest component is untouched.
//
//slmob:hotpath
func (ws *Workspace) Diameter() int {
	g := &ws.g
	n := len(g.adj)
	if n == 0 {
		return 0
	}
	ws.dist = growInt32(ws.dist, n)
	ws.queue = growInt32(ws.queue, n)[:0]
	if cap(ws.seen) < n {
		ws.seen = make([]bool, n, n+n/2+8)
	}
	ws.seen = ws.seen[:n]
	for i := range ws.seen {
		ws.seen[i] = false
	}

	// Largest component, ties broken by first-seen order like
	// Graph.LargestComponent.
	ws.best = ws.best[:0]
	for s := 0; s < n; s++ {
		if ws.seen[s] {
			continue
		}
		ws.comp = ws.comp[:0]
		ws.queue = ws.queue[:0]
		ws.queue = append(ws.queue, int32(s))
		ws.seen[s] = true
		for qi := 0; qi < len(ws.queue); qi++ {
			u := ws.queue[qi]
			ws.comp = append(ws.comp, u)
			for _, v := range g.adj[u] {
				if !ws.seen[v] {
					ws.seen[v] = true
					ws.queue = append(ws.queue, v)
				}
			}
		}
		if len(ws.comp) > len(ws.best) {
			ws.best, ws.comp = ws.comp, ws.best
		}
	}
	if len(ws.best) < 2 {
		return 0
	}
	if ws.d.ok {
		return ws.deltaDiameter()
	}
	return int(ws.eccDiameter())
}

// eccDiameter returns the diameter of the connected component ws.best by
// Takes & Kosters' BoundingDiameters: every member carries lower and
// upper bounds on its eccentricity; a BFS from v gives ecc(v) exactly
// and tightens every member w's bounds to
//
//	max(ecc(v)−d(v,w), d(v,w)) ≤ ecc(w) ≤ ecc(v)+d(v,w).
//
// The diameter is the largest eccentricity, so the best lower bound so
// far, lo, is a lower bound on it, and 2·ecc(v) an upper bound. A member
// whose upper bound is at most lo can no longer raise the answer and is
// dropped; the search ends when no member is left or the two diameter
// bounds meet. BFS sources alternate between the smallest lower bound,
// ties to the higher degree (a central vertex, whose eccentricity caps
// everyone's), and the largest upper bound, ties to the lower degree (a
// peripheral one, whose eccentricity may raise lo). That settles the
// proximity graphs here in four to eight BFS runs instead of one per
// member. The result is exact.
//
//slmob:hotpath
func (ws *Workspace) eccDiameter() int32 {
	g := &ws.g
	n := len(g.adj)
	ws.eccLo = growInt32(ws.eccLo, n)
	ws.eccHi = growInt32(ws.eccHi, n)
	ws.open = ws.open[:0]
	for _, u := range ws.best {
		ws.eccLo[u] = 0
		ws.eccHi[u] = math.MaxInt32
		ws.open = append(ws.open, u)
	}
	lo, hi := int32(0), int32(math.MaxInt32)
	byHi := false // start from the highest-degree member
	for len(ws.open) > 0 && lo < hi {
		v := ws.open[0]
		for _, w := range ws.open[1:] {
			var better bool
			if byHi {
				better = ws.eccHi[w] > ws.eccHi[v] || ws.eccHi[w] == ws.eccHi[v] && len(g.adj[w]) < len(g.adj[v])
			} else {
				better = ws.eccLo[w] < ws.eccLo[v] || ws.eccLo[w] == ws.eccLo[v] && len(g.adj[w]) > len(g.adj[v])
			}
			if better {
				v = w
			}
		}
		byHi = !byHi
		ecc := ws.bfsEcc(v)
		lo = max(lo, ecc)
		hi = min(hi, 2*ecc)
		k := 0
		for _, w := range ws.open {
			dw := ws.dist[w]
			ws.eccLo[w] = max(ws.eccLo[w], ecc-dw, dw)
			ws.eccHi[w] = min(ws.eccHi[w], ecc+dw)
			lo = max(lo, ws.eccLo[w])
			if ws.eccHi[w] > lo {
				ws.open[k] = w
				k++
			}
		}
		ws.open = ws.open[:k]
	}
	return lo
}

// bfsEcc runs a BFS from src over the component ws.best, leaving hop
// distances in ws.dist, and returns src's eccentricity. Distance resets
// are restricted to the component: O(|C|) per run, not O(n).
//
//slmob:hotpath
func (ws *Workspace) bfsEcc(src int32) int32 {
	g := &ws.g
	for _, u := range ws.best {
		ws.dist[u] = -1
	}
	ws.dist[src] = 0
	ws.queue = ws.queue[:0]
	ws.queue = append(ws.queue, src)
	ecc := int32(0)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		du := ws.dist[u]
		ecc = du
		for _, v := range g.adj[u] {
			if ws.dist[v] < 0 {
				ws.dist[v] = du + 1
				ws.queue = append(ws.queue, v)
			}
		}
	}
	return ecc
}

// Graph returns the workspace's current graph — the value the latest
// build call produced. It is invalidated by the next build call.
func (ws *Workspace) Graph() *Graph { return &ws.g }

// MeanClustering returns the mean Watts–Strogatz clustering coefficient
// of the workspace's current graph. After an ApplyPositions build it is
// an O(n) pass over the maintained triangle counts; the result is
// bit-identical to Graph.MeanClustering either way.
func (ws *Workspace) MeanClustering() float64 {
	if ws.d.ok {
		return ws.deltaMeanClustering()
	}
	return ws.g.MeanClustering()
}
