package graph

import (
	"fmt"
	"slices"
	"testing"

	"slmob/internal/geom"
)

// deltaSim is a seeded avatar-churn simulator for the differential tests:
// a population with login/logout churn, teleports, and per-step walks,
// deterministic for a given seed.
type deltaSim struct {
	state  uint64
	nextID uint64
	ids    []uint64
	pos    []geom.Vec
}

func newDeltaSim(seed uint64, n int) *deltaSim {
	s := &deltaSim{state: seed*2862933555777941757 + 3037000493, nextID: 1}
	for i := 0; i < n; i++ {
		s.login()
	}
	return s
}

func (s *deltaSim) rand() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

func (s *deltaSim) unit() float64 { return float64(s.rand()>>40) / float64(1<<24) }

func (s *deltaSim) randPos() geom.Vec {
	// Half the population concentrates in a 60 m plaza so components are
	// non-trivial at r=10; the rest scatters over the land.
	if s.unit() < 0.5 {
		return geom.V2(100+60*s.unit(), 100+60*s.unit())
	}
	return geom.V2(256*s.unit(), 256*s.unit())
}

func (s *deltaSim) login() {
	s.ids = append(s.ids, s.nextID)
	s.pos = append(s.pos, s.randPos())
	s.nextID++
}

// step advances one snapshot: logouts, logins, teleports, and short
// walks, at the given per-avatar rates.
func (s *deltaSim) step(logout, login, teleport, walk float64) {
	for i := 0; i < len(s.ids); {
		if s.unit() < logout {
			last := len(s.ids) - 1
			s.ids[i], s.pos[i] = s.ids[last], s.pos[last]
			s.ids, s.pos = s.ids[:last], s.pos[:last]
			continue
		}
		i++
	}
	for k := 0; k < 4; k++ {
		if s.unit() < login {
			s.login()
		}
	}
	for i := range s.ids {
		switch u := s.unit(); {
		case u < teleport:
			s.pos[i] = s.randPos()
		case u < teleport+walk:
			s.pos[i] = geom.V2(s.pos[i].X+6*(s.unit()-0.5), s.pos[i].Y+6*(s.unit()-0.5))
		}
	}
}

// edgeSet returns the graph's edges as sorted packed (min,max) pairs —
// the order-insensitive adjacency comparison.
func edgeSet(g *Graph) []uint64 {
	var es []uint64
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				es = append(es, uint64(u)<<32|uint64(v))
			}
		}
	}
	slices.Sort(es)
	return es
}

// checkParity asserts that the delta workspace's current graph and
// metrics are bit-identical to a scratch build over the same snapshot.
func checkParity(t *testing.T, step int, ws *Workspace, ps []geom.Vec, r float64) {
	t.Helper()
	g := ws.Graph()
	scratch := NewWorkspace()
	want := scratch.FromPositions(ps, r)
	if g.N() != want.N() || g.M() != want.M() {
		t.Fatalf("step %d: N/M = %d/%d, want %d/%d", step, g.N(), g.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		if g.Degree(u) != want.Degree(u) {
			t.Fatalf("step %d: degree(%d) = %d, want %d", step, u, g.Degree(u), want.Degree(u))
		}
	}
	if ge, we := edgeSet(g), edgeSet(want); !slices.Equal(ge, we) {
		t.Fatalf("step %d: edge sets differ: got %d edges, want %d", step, len(ge), len(we))
	}
	if gd, wd := ws.Diameter(), scratch.Diameter(); gd != wd {
		t.Fatalf("step %d: diameter = %d, want %d", step, gd, wd)
	}
	if gc, wc := ws.MeanClustering(), scratch.MeanClustering(); gc != wc {
		t.Fatalf("step %d: clustering = %v, want %v (must be bit-identical)", step, gc, wc)
	}
}

// TestApplyPositionsDifferential is the randomized differential gate:
// a seeded churn simulation runs for K snapshots and the incremental
// build must match a scratch build bit-for-bit at every step — edges,
// degrees, diameter, clustering — across churn regimes and fallback
// thresholds (always-incremental, default, twitchy, always-rebuild).
func TestApplyPositionsDifferential(t *testing.T) {
	regimes := []struct {
		name                          string
		logout, login, teleport, walk float64
	}{
		{"calm", 0.002, 0.1, 0.002, 0.05},
		{"paper", 0.01, 0.3, 0.01, 0.2},
		{"stormy", 0.08, 0.9, 0.15, 0.6},
	}
	thresholds := []float64{1.0, 0, 0.05, -1}
	for _, reg := range regimes {
		for _, thresh := range thresholds {
			for _, r := range []float64{10, 80} {
				sim := newDeltaSim(uint64(len(reg.name))*1000003+uint64(r), 70)
				ws := NewWorkspace()
				ws.SetChurnThreshold(thresh)
				for step := 0; step < 120; step++ {
					sim.step(reg.logout, reg.login, reg.teleport, reg.walk)
					ws.ApplyPositions(sim.ids, sim.pos, r)
					checkParity(t, step, ws, sim.pos, r)
					// A scratch build mid-stream must invalidate cleanly.
					if step == 60 {
						ws.FromPositions(sim.pos, r)
					}
				}
				st := ws.Stats()
				if st.Snapshots != 120 {
					t.Fatalf("%s thresh=%v r=%v: %d snapshots counted, want 120", reg.name, thresh, r, st.Snapshots)
				}
				if st.Incremental+st.FullRebuilds != st.Snapshots {
					t.Fatalf("%s thresh=%v r=%v: stats don't partition: %+v", reg.name, thresh, r, st)
				}
				if thresh == -1 && st.Incremental != 0 {
					t.Fatalf("thresh=-1 must always rebuild, served %d incrementally", st.Incremental)
				}
				if thresh == 1.0 && reg.name == "calm" && st.FullRebuilds > 2 {
					// First build + the forced FromPositions invalidation.
					t.Fatalf("thresh=1 should never fall back, rebuilt %d times", st.FullRebuilds)
				}
			}
		}
	}
}

// TestApplyPositionsInterleavedSizes drives population growth and shrink
// — including collapse to zero and one — through a single workspace,
// interleaved with scratch builds of other sizes, so buffer reuse across
// differently-sized snapshots cannot leak stale slots or adjacency.
func TestApplyPositionsInterleavedSizes(t *testing.T) {
	ws := NewWorkspace()
	sizes := []int{80, 3, 150, 0, 1, 40, 200, 2, 97}
	var ids []uint64
	var ps []geom.Vec
	for step, n := range sizes {
		ids, ps = ids[:0], ps[:0]
		// Overlapping identity across steps: avatars 0..n-1, positions
		// re-derived per step so survivors move.
		for i := 0; i < n; i++ {
			ids = append(ids, uint64(i+1))
			base := wsPositions(n, uint64(step))
			ps = append(ps, base[i])
		}
		ws.ApplyPositions(ids, ps, 10)
		checkParity(t, step, ws, ps, 10)
		if step%3 == 1 {
			// Disturb the pooled buffers with an unrelated scratch build.
			ws.FromPositions(wsPositions(300, uint64(step)), 80)
			ws.Diameter()
			ws.ApplyPositions(ids, ps, 10)
			checkParity(t, step, ws, ps, 10)
		}
	}
}

// TestApplyPositionsRangeChange: changing the communication range must
// force a rebuild, not reuse state keyed to the old range.
func TestApplyPositionsRangeChange(t *testing.T) {
	ws := NewWorkspace()
	ps := wsPositions(90, 7)
	ids := make([]uint64, len(ps))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	ws.ApplyPositions(ids, ps, 10)
	ws.ApplyPositions(ids, ps, 80)
	checkParity(t, 1, ws, ps, 80)
	ws.ApplyPositions(ids, ps, 10)
	checkParity(t, 2, ws, ps, 10)
	if st := ws.Stats(); st.FullRebuilds != 3 {
		t.Fatalf("range flips must rebuild every time: %+v", st)
	}
}

// TestApplyPositionsComponentReuse pins the counter meanings of the
// incremental engine: on a static population every Diameter call after
// the first is served from the component cache and only the first build
// counts its vertices as CCComputed; moving a far-away isolate or
// jittering a cluster member without changing an edge adds no edge
// patches, keeps the diameter cached and changes no vertex's degree or
// triangle count; a move that breaks edges recomputes the diameter and
// counts exactly the vertices whose degree or triangle count changed.
func TestApplyPositionsComponentReuse(t *testing.T) {
	ws := NewWorkspace()
	// A K4 cluster plus one distant isolate.
	ps := []geom.Vec{
		geom.V2(50, 50), geom.V2(55, 50), geom.V2(50, 55), geom.V2(57, 56),
		geom.V2(230, 230),
	}
	ids := []uint64{1, 2, 3, 4, 99}
	step := func() {
		t.Helper()
		ws.ApplyPositions(ids, ps, 10)
		ws.Diameter()
		ws.MeanClustering()
	}
	for i := 0; i < 5; i++ {
		step()
	}
	st := ws.Stats()
	if st.DiamComputed != 1 || st.DiamReused != 4 {
		t.Fatalf("static population: diameter computed %d / reused %d, want 1/4", st.DiamComputed, st.DiamReused)
	}
	if st.CCComputed != 5 || st.CCReused != 20 {
		t.Fatalf("static population: CC computed %d / reused %d, want 5/20", st.CCComputed, st.CCReused)
	}
	// Move the isolate, then jitter a cluster member: avatars moved, but
	// no edge, degree or triangle count changed.
	ps[4] = geom.V2(200, 200)
	step()
	ps[0] = geom.V2(50.01, 49.99)
	step()
	st = ws.Stats()
	if st.Moved != 2 || st.EdgesAdded != 0 || st.EdgesRemoved != 0 {
		t.Fatalf("edge-preserving moves patched edges: %+v", st)
	}
	if st.DiamComputed != 1 || st.DiamReused != 6 {
		t.Fatalf("edge-preserving moves invalidated the main component: computed %d / reused %d", st.DiamComputed, st.DiamReused)
	}
	if st.CCComputed != 5 || st.CCReused != 30 {
		t.Fatalf("edge-preserving moves: CC computed %d / reused %d, want 5/30", st.CCComputed, st.CCReused)
	}
	checkParity(t, 7, ws, ps, 10)
	// Pull member 4 out of range of 1 and 3 but not 2: two edges go, the
	// four cluster vertices change degree or triangle count, the isolate
	// does not (reused count includes checkParity's MeanClustering call).
	ps[3] = geom.V2(63, 52)
	step()
	st = ws.Stats()
	if st.EdgesAdded != 0 || st.EdgesRemoved != 2 {
		t.Fatalf("member move: edges added %d / removed %d, want 0/2", st.EdgesAdded, st.EdgesRemoved)
	}
	if st.DiamComputed != 2 {
		t.Fatalf("member move must recompute the diameter: %+v", st)
	}
	if st.CCComputed != 9 || st.CCReused != 36 {
		t.Fatalf("member move: CC computed %d / reused %d, want 9/36", st.CCComputed, st.CCReused)
	}
	checkParity(t, 8, ws, ps, 10)
}

// recountTriangles is the from-scratch oracle for the maintained counts:
// for every vertex, the number of neighbour pairs joined by an edge,
// probed with Graph.HasEdge.
func recountTriangles(g *Graph, u int) int32 {
	nb := g.Neighbors(u)
	links := int32(0)
	for i := range nb {
		for j := i + 1; j < len(nb); j++ {
			if g.HasEdge(int(nb[i]), int(nb[j])) {
				links++
			}
		}
	}
	return links
}

// checkTriangles asserts that every live slot's maintained triangle
// count equals a from-scratch recount, and that every free slot is
// empty.
func checkTriangles(t *testing.T, step int, ws *Workspace) {
	t.Helper()
	g, d := ws.Graph(), &ws.d
	for u := 0; u < g.N(); u++ {
		s := d.slotOf[u]
		if got, want := d.tri[s], recountTriangles(g, u); got != want {
			t.Fatalf("step %d: vertex %d (slot %d) has %d triangles, recount %d", step, u, s, got, want)
		}
	}
	for _, s := range d.free {
		if len(d.nbr[s]) != 0 || d.tri[s] != 0 {
			t.Fatalf("step %d: free slot %d keeps %d neighbours / %d triangles", step, s, len(d.nbr[s]), d.tri[s])
		}
	}
}

// TestTriangleCountsDifferential checks the maintained per-slot triangle
// counts against a recount after every ApplyPositions: across churn
// regimes and fallback thresholds (always-incremental, default, twitchy,
// always-rebuild), both paper ranges, range flips, interleaved
// population sizes, and mass departures followed by mass returns.
func TestTriangleCountsDifferential(t *testing.T) {
	for _, thresh := range []float64{1.0, 0, 0.05, -1} {
		for _, r := range []float64{10, 80} {
			sim := newDeltaSim(uint64(r)*7+uint64(thresh*100+1), 70)
			ws := NewWorkspace()
			ws.SetChurnThreshold(thresh)
			for step := 0; step < 150; step++ {
				switch {
				case step == 50:
					// Mass departure: all but a handful log out at once.
					sim.ids, sim.pos = sim.ids[:5], sim.pos[:5]
				case step > 50 && step < 60:
					for k := 0; k < 8; k++ {
						sim.login()
					}
				default:
					sim.step(0.02, 0.5, 0.02, 0.3)
				}
				rr := r
				if step%40 == 39 {
					rr = 90 - r // a range flip forces a rebuild, then back
				}
				ws.ApplyPositions(sim.ids, sim.pos, rr)
				checkTriangles(t, step, ws)
				if gc, wc := ws.MeanClustering(), ws.Graph().MeanClustering(); gc != wc {
					t.Fatalf("thresh=%v r=%v step %d: clustering = %v, oracle %v", thresh, rr, step, gc, wc)
				}
			}
		}
	}
	// Interleaved sizes, including collapse to zero and one.
	ws := NewWorkspace()
	ws.SetChurnThreshold(1)
	for step, n := range []int{80, 3, 150, 0, 1, 40, 200, 2, 97, 97} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		ws.ApplyPositions(ids, wsPositions(n, uint64(step)), 10)
		checkTriangles(t, step, ws)
	}
}

// eccGraph builds a graph from an edge list over n vertices.
func eccGraph(t *testing.T, n int, edges ...[2]int) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pathEdges returns the edges of the path lo-(lo+1)-...-hi.
func pathEdges(lo, hi int) [][2]int {
	var es [][2]int
	for u := lo; u < hi; u++ {
		es = append(es, [2]int{u, u + 1})
	}
	return es
}

// TestEccDiameterDifferential checks the bounded-eccentricity diameter
// against the all-pairs Graph.Diameter oracle on structured families —
// paths, cycles, stars, barbells, grids, trees, 1–2-vertex components,
// largest-component ties in both orders — and on seeded random graphs
// from sparse to dense. One workspace serves every case, so buffer reuse
// across sizes is covered too.
func TestEccDiameterDifferential(t *testing.T) {
	ws := NewWorkspace()
	check := func(name string, g *Graph) {
		t.Helper()
		ws.FromPositions(nil, 0) // drop any incremental state
		ws.g = Graph{adj: g.adj, m: g.m}
		if got, want := ws.Diameter(), g.Diameter(); got != want {
			t.Fatalf("%s: diameter = %d, oracle %d", name, got, want)
		}
	}
	check("empty", New(0))
	check("single", New(1))
	check("two isolates", New(2))
	check("edge", eccGraph(t, 2, [2]int{0, 1}))
	check("edge plus isolates", eccGraph(t, 5, [2]int{3, 1}))
	for _, n := range []int{3, 4, 5, 10, 31, 64} {
		check(fmt.Sprintf("path%d", n), eccGraph(t, n, pathEdges(0, n-1)...))
		check(fmt.Sprintf("cycle%d", n), eccGraph(t, n, append(pathEdges(0, n-1), [2]int{n - 1, 0})...))
		var star [][2]int
		for v := 1; v < n; v++ {
			star = append(star, [2]int{0, v})
		}
		check(fmt.Sprintf("star%d", n), eccGraph(t, n, star...))
		// Barbell: two n-cliques joined by a 3-edge path.
		var bar [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				bar = append(bar, [2]int{u, v}, [2]int{n + 2 + u, n + 2 + v})
			}
		}
		bar = append(bar, [2]int{n - 1, n}, [2]int{n, n + 1}, [2]int{n + 1, n + 2})
		check(fmt.Sprintf("barbell%d", n), eccGraph(t, 2*n+2, bar...))
	}
	for _, wh := range [][2]int{{1, 7}, {2, 2}, {3, 9}, {6, 6}, {5, 12}} {
		w, h := wh[0], wh[1]
		var grid [][2]int
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					grid = append(grid, [2]int{y*w + x, y*w + x + 1})
				}
				if y+1 < h {
					grid = append(grid, [2]int{y*w + x, (y+1)*w + x})
				}
			}
		}
		check(fmt.Sprintf("grid%dx%d", w, h), eccGraph(t, w*h, grid...))
	}
	// Largest-component ties: a 4-path (diameter 3) and a 4-star
	// (diameter 2); whichever is seen first must decide, in both orders.
	pathFirst := eccGraph(t, 8, append(pathEdges(0, 3), [2]int{4, 5}, [2]int{4, 6}, [2]int{4, 7})...)
	starFirst := eccGraph(t, 8, append(pathEdges(4, 7), [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})...)
	check("tie path first", pathFirst)
	check("tie star first", starFirst)
	if pathFirst.Diameter() != 3 || starFirst.Diameter() != 2 {
		t.Fatal("tie fixtures do not distinguish the two components")
	}

	state := uint64(12345)
	rnd := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for trial := 0; trial < 400; trial++ {
		n := 2 + int(rnd()%90)
		g := New(n)
		switch trial % 3 {
		case 0: // Erdős–Rényi from below to well above the giant-component threshold
			p := float64(rnd()%1000) / 1000 * 6 / float64(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if float64(rnd()%1000000)/1000000 < p {
						g.AddEdgeUnchecked(u, v)
					}
				}
			}
		case 1: // random tree plus a few chords: long paths, many peripheral vertices
			for v := 1; v < n; v++ {
				g.AddEdgeUnchecked(int(rnd()%uint64(v)), v)
			}
			for k := 0; k < int(rnd()%4); k++ {
				_ = g.AddEdge(int(rnd()%uint64(n)), int(rnd()%uint64(n)))
			}
		default: // dense random graph
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rnd()%3 == 0 {
						g.AddEdgeUnchecked(u, v)
					}
				}
			}
		}
		check(fmt.Sprintf("random trial %d (n=%d)", trial, n), g)
	}
}

// deltaAllocFrames precomputes a cycle of snapshots over a stable
// population in which ~10% of avatars walk (some across grid cells) each
// frame, so the steady-state pin measures the incremental path with real
// movement, grid relocation, and edge churn.
func deltaAllocFrames(n, frames int) (ids []uint64, frame [][]geom.Vec) {
	base := wsPositions(n, 11)
	ids = make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	frame = make([][]geom.Vec, frames)
	for f := range frame {
		ps := make([]geom.Vec, n)
		copy(ps, base)
		for i := 0; i < n; i += 10 {
			// A 12 m swing crosses r=10 grid cells and makes/breaks edges.
			ps[i] = geom.V2(base[i].X+12*float64(f%4), base[i].Y)
		}
		frame[f] = ps
	}
	return ids, frame
}

// TestApplyPositionsZeroAllocSteadyState pins the tentpole contract on
// the delta path: once warmed, an ApplyPositions → EdgeChanges →
// Diameter → MeanClustering cycle — diff, grid moves, edge diff and its
// recorded changes, triangle updates, bounded diameter, clustering —
// allocates nothing: with walkers making and breaking edges, with paused
// avatars' micro-jitter dirtying slots whose edges do not change, and
// with one avatar departing and another arriving at its place in every
// snapshot, so the arrival recycles the departed avatar's slot.
func TestApplyPositionsZeroAllocSteadyState(t *testing.T) {
	ids, frames := deltaAllocFrames(120, 8)
	jitter := make([][]geom.Vec, len(frames))
	for f, ps := range frames {
		jitter[f] = slices.Clone(ps)
		for i := 1; i < len(ps); i += 3 {
			jitter[f][i].X += 0.01 * float64(f%2)
		}
	}
	// Avatar ids[5] and a stand-in take turns at the same position.
	swap := slices.Clone(ids)
	swap[5] = 1 << 40
	for _, tc := range []struct {
		name    string
		frames  [][]geom.Vec
		recycle bool
	}{{"walkers", frames, false}, {"walkers+jitter", jitter, false}, {"walkers+recycle", frames, true}} {
		idsAt := func(f int) []uint64 {
			if tc.recycle && f%2 == 1 {
				return swap
			}
			return ids
		}
		ws := NewWorkspace()
		changes := 0
		cycleOnce := func(f int) {
			ws.ApplyPositions(idsAt(f), tc.frames[f%len(tc.frames)], 10)
			added, removed, _ := ws.EdgeChanges()
			changes += len(added) + len(removed)
			_ = ws.Diameter()
			_ = ws.MeanClustering()
		}
		for f := 0; f < 3*len(tc.frames); f++ {
			cycleOnce(f)
		}
		f := 0
		avg := testing.AllocsPerRun(100, func() {
			cycleOnce(f)
			f++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state cycle allocates %v per snapshot, want 0", tc.name, avg)
		}
		st := ws.Stats()
		if st.Incremental == 0 || st.FullRebuilds != 1 || changes == 0 {
			t.Fatalf("%s: pin did not exercise the incremental path: %+v, %d edge changes", tc.name, st, changes)
		}
		if tc.recycle && (st.Arrived == 0 || st.Departed == 0) {
			t.Fatalf("%s: no departure and arrival: %+v", tc.name, st)
		}
	}
}

// TestGrowInt32PreservesPrefix: reallocation must carry the live prefix —
// the latent reuse hazard the delta mode's slot tables would trip over.
func TestGrowInt32PreservesPrefix(t *testing.T) {
	buf := growInt32(nil, 4)
	for i := range buf {
		buf[i] = int32(i + 1)
	}
	grown := growInt32(buf, 4096)
	for i := 0; i < 4; i++ {
		if grown[i] != int32(i+1) {
			t.Fatalf("growInt32 lost prefix entry %d: got %d", i, grown[i])
		}
	}
	if shrunk := growInt32(grown, 2); shrunk[0] != 1 || shrunk[1] != 2 {
		t.Fatal("growInt32 shrink lost prefix")
	}
}

// BenchmarkP4IncrementalBuild is the city-scale graph-build+metrics
// benchmark on the temporal-coherence path: the same 200-avatar snapshot
// cadence as BenchmarkP4WorkspaceBuild, with paper-default mobility (~10%
// of avatars walking per 10 s snapshot) served by ApplyPositions.
func BenchmarkP4IncrementalBuild(b *testing.B) {
	ws := NewWorkspace()
	ids, frames := deltaAllocFrames(200, 8)
	for _, ps := range frames {
		ws.ApplyPositions(ids, ps, 10)
		ws.Diameter()
		ws.MeanClustering()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ApplyPositions(ids, frames[i%len(frames)], 10)
		ws.Diameter()
		ws.MeanClustering()
	}
}

// BenchmarkP4ScratchMovingBuild is the from-scratch control for the
// incremental benchmark: identical moving frames, rebuilt with
// FromPositions every snapshot. The incremental/scratch ratio between the
// two is the speedup the churn stats in slbench should reflect.
func BenchmarkP4ScratchMovingBuild(b *testing.B) {
	ws := NewWorkspace()
	ids, frames := deltaAllocFrames(200, 8)
	_ = ids
	ws.FromPositions(frames[0], 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FromPositions(frames[i%len(frames)], 10)
		ws.Diameter()
		ws.MeanClustering()
	}
}
