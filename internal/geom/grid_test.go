package geom

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGridFindsNeighborsExactly(t *testing.T) {
	g := NewGrid(10)
	pts := []Vec{
		V2(0, 0), V2(5, 0), V2(9.9, 0), V2(10.1, 0),
		V2(0, 5), V2(50, 50), V2(255, 255),
	}
	for i, p := range pts {
		g.Insert(int64(i), p)
	}
	got := g.Within(V2(0, 0), 10)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
}

func TestGridCountAndLen(t *testing.T) {
	g := NewGrid(20)
	for i := 0; i < 100; i++ {
		g.Insert(int64(i), V2(float64(i), float64(i)))
	}
	if g.Len() != 100 {
		t.Errorf("Len = %d", g.Len())
	}
	// Points on the diagonal within radius r of (50,50): |i-50|*sqrt2 <= r.
	n := g.CountWithin(V2(50, 50), 10)
	want := 0
	for i := 0; i < 100; i++ {
		if math.Hypot(float64(i)-50, float64(i)-50) <= 10 {
			want++
		}
	}
	if n != want {
		t.Errorf("CountWithin = %d, want %d", n, want)
	}
}

func TestGridReset(t *testing.T) {
	g := NewGrid(8)
	g.Insert(1, V2(1, 1))
	g.Insert(2, V2(100, 100))
	g.Reset()
	if g.Len() != 0 {
		t.Errorf("Len after reset = %d", g.Len())
	}
	if n := g.CountWithin(V2(1, 1), 500); n != 0 {
		t.Errorf("CountWithin after reset = %d", n)
	}
	g.Insert(3, V2(1, 1))
	if n := g.CountWithin(V2(0, 0), 5); n != 1 {
		t.Errorf("reuse after reset: CountWithin = %d", n)
	}
}

func TestGridEarlyStop(t *testing.T) {
	g := NewGrid(10)
	for i := 0; i < 10; i++ {
		g.Insert(int64(i), V2(1, 1))
	}
	calls := 0
	g.VisitWithin(V2(1, 1), 1, func(int64, Vec) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop visited %d, want 3", calls)
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(-5, -5))
	g.Insert(2, V2(-25, -25))
	got := g.Within(V2(-4, -4), 3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Within negative region = %v", got)
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(0, 0))
	if got := g.Within(V2(0, 0), -1); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}

// bruteWithin is the O(n) reference for VisitWithin: the ids of the
// points whose squared ground-plane distance to c is at most r², the
// grid's own predicate, sorted.
func bruteWithin(pts map[int64]Vec, c Vec, r float64) []int64 {
	var ids []int64
	if !(r >= 0) {
		return nil
	}
	for id, p := range pts {
		dx, dy := p.X-c.X, p.Y-c.Y
		if dx*dx+dy*dy <= r*r {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// sortedWithin returns the grid's answer sorted, for comparison with
// bruteWithin.
func sortedWithin(g *Grid, c Vec, r float64) []int64 {
	ids := g.Within(c, r)
	slices.Sort(ids)
	return ids
}

// hostile are coordinates far beyond any learnt extent, infinite, or
// NaN.
var hostile = []float64{1e12, -1e12, math.Inf(1), math.Inf(-1), math.NaN()}

// TestGridMatchesBruteForceProperty cross-checks grid range queries against
// an O(n) scan on random point sets that also hold points beyond the
// learnt extent and at hostile coordinates, with queries centred and
// sized the same way.
func TestGridMatchesBruteForceProperty(t *testing.T) {
	type input struct {
		Seed uint16
	}
	f := func(in input) bool {
		// Simple deterministic pseudo-random points from the seed.
		s := uint64(in.Seed) + 1
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53) * 256
		}
		pick := func() float64 { return hostile[int(next())%len(hostile)] }
		g := NewGrid(13)
		pts := make(map[int64]Vec)
		add := func(p Vec) {
			id := int64(len(pts))
			pts[id] = p
			g.Insert(id, p)
		}
		for i := 0; i < 60; i++ {
			add(V2(next(), next()))
		}
		// Beyond the extent the first points taught the grid, and at
		// hostile coordinates, past the cell budget, on one or both axes.
		for i := 0; i < 10; i++ {
			add(V2(next()*0.2-600, next()*1.5))
			add(V2(pick(), next()))
			add(V2(next(), pick()))
			add(V2(pick(), pick()))
		}
		centres := []Vec{V2(next(), next()), V2(next()*0.2-600, next()), V2(pick(), next()), V2(pick(), pick())}
		radii := []float64{next() / 4, next() * 40, 1e12, math.Inf(1), math.NaN(), -1}
		for _, c := range centres {
			for _, r := range radii {
				if !slices.Equal(sortedWithin(g, c, r), bruteWithin(pts, c, r)) {
					t.Logf("seed %d: Within(%v, %v) = %v, want %v", in.Seed, c, r, sortedWithin(g, c, r), bruteWithin(pts, c, r))
					return false
				}
			}
		}
		return len(g.cells) <= maxGridCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzGridVisitWithin drives a grid through inserts, moves, removals and
// queries decoded from the input — coordinates include far, infinite
// and NaN values — and checks every query against brute force, every
// Remove and Move against the points actually stored, and the cell table
// against its budget.
func FuzzGridVisitWithin(f *testing.F) {
	f.Add([]byte{0, 10, 10, 0, 12, 11, 3, 10, 10, 2, 250, 10, 7, 10, 10, 1, 0, 0})
	f.Add([]byte{0, 245, 246, 0, 100, 100, 4, 247, 1, 11, 100, 100, 15, 245, 0, 6, 200, 200, 19, 100, 100})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 0, 128, 128, 3, 248, 248, 7, 0, 0, 2, 1, 1, 23, 128, 128})
	radii := []float64{0, 5, 7, 30, 1e3, 1e12, math.Inf(1), math.NaN(), -1}
	coord := func(b byte) float64 {
		if k := int(b) - 245; k >= 0 && k < len(hostile) {
			return hostile[k]
		}
		if b > 250 {
			return float64(b) * 1e5
		}
		return float64(b)*2.5 - 100
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		g := NewGrid(7)
		pts := make(map[int64]Vec)
		var ids []int64 // stored ids in insertion order
		next := int64(0)
		for ; len(prog) >= 3; prog = prog[3:] {
			op, p := prog[0], V2(coord(prog[1]), coord(prog[2]))
			arg := int(op / 4)
			switch op % 4 {
			case 0:
				g.Insert(next, p)
				pts[next] = p
				ids = append(ids, next)
				next++
			case 1:
				if len(ids) == 0 {
					if g.Remove(0, p) {
						t.Fatal("Remove found a point in an empty grid")
					}
					continue
				}
				k := arg % len(ids)
				id := ids[k]
				if !g.Remove(id, pts[id]) {
					t.Fatalf("Remove(%d, %v) missed a stored point", id, pts[id])
				}
				if g.Remove(id, pts[id]) {
					t.Fatalf("Remove(%d) succeeded twice", id)
				}
				delete(pts, id)
				ids = append(ids[:k], ids[k+1:]...)
			case 2:
				if len(ids) == 0 {
					continue
				}
				id := ids[arg%len(ids)]
				if !g.Move(id, pts[id], p) {
					t.Fatalf("Move(%d, %v, %v) missed a stored point", id, pts[id], p)
				}
				pts[id] = p
			case 3:
				r := radii[arg%len(radii)]
				if got, want := sortedWithin(g, p, r), bruteWithin(pts, p, r); !slices.Equal(got, want) {
					t.Fatalf("Within(%v, %v) = %v, want %v", p, r, got, want)
				}
			}
			if len(g.cells) > maxGridCells {
				t.Fatalf("cell table holds %d cells, budget %d", len(g.cells), maxGridCells)
			}
		}
		if g.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
		}
		for _, p := range pts {
			if got, want := sortedWithin(g, p, 7), bruteWithin(pts, p, 7); !slices.Equal(got, want) {
				t.Fatalf("final Within(%v, 7) = %v, want %v", p, got, want)
			}
		}
	})
}

// TestGridZeroAllocSteadyState pins the //slmob:hotpath contract on the
// grid's per-snapshot cycle: once every bucket a population touches has
// been materialised, Reset + reinsertion + range queries allocate
// nothing.
func TestGridZeroAllocSteadyState(t *testing.T) {
	g := NewGrid(10)
	pts := make([]Vec, 64)
	for i := range pts {
		pts[i] = V2(float64(i%8)*12, float64(i/8)*12)
	}
	// Warm-up: materialise every bucket and the occupied list.
	for i := 0; i < 3; i++ {
		g.Reset()
		for j, p := range pts {
			g.Insert(int64(j), p)
		}
	}
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		g.Reset()
		for j, p := range pts {
			g.Insert(int64(j), p)
		}
		g.VisitWithin(pts[7], 25, func(int64, Vec) bool { n++; return true })
	})
	if avg != 0 {
		t.Errorf("steady-state grid cycle allocates %v per run, want 0", avg)
	}
	if n == 0 {
		t.Fatal("VisitWithin visited nothing")
	}
}

// TestGridRemoveAndMove exercises the incremental-maintenance API: removal,
// same-cell moves (position update in place), cross-cell moves, and the
// not-found cases.
func TestGridRemoveAndMove(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(5, 5))
	g.Insert(2, V2(6, 5))
	g.Insert(3, V2(55, 55))

	if !g.Remove(2, V2(6, 5)) {
		t.Fatal("Remove failed for a present point")
	}
	if g.Remove(2, V2(6, 5)) {
		t.Fatal("Remove succeeded twice for the same point")
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("Len = %d after removal, want 2", got)
	}

	// Same-cell move: the query must see the new position.
	if !g.Move(1, V2(5, 5), V2(8, 8)) {
		t.Fatal("same-cell Move failed")
	}
	if got := g.Within(V2(8, 8), 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after same-cell move Within = %v, want [1]", got)
	}

	// Cross-cell move.
	if !g.Move(3, V2(55, 55), V2(100, 5)) {
		t.Fatal("cross-cell Move failed")
	}
	if got := g.CountWithin(V2(55, 55), 2); got != 0 {
		t.Fatalf("stale point still visible at old cell: %d", got)
	}
	if got := g.Within(V2(100, 5), 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after cross-cell move Within = %v, want [3]", got)
	}
	if g.Move(42, V2(0, 0), V2(1, 1)) {
		t.Fatal("Move succeeded for an absent point")
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("Len = %d after moves, want 2", got)
	}
}

// TestGridMoveChurnZeroAlloc pins the incremental contract: on a grid that
// is never Reset, an arbitrary interleaving of cross-cell moves, removals,
// and re-inserts into previously-touched cells allocates nothing and keeps
// the occupied list duplicate-free, so a later Reset still restores the
// empty state.
func TestGridMoveChurnZeroAlloc(t *testing.T) {
	g := NewGrid(10)
	a, b := V2(5, 5), V2(25, 25)
	g.Insert(1, a)
	// Warm both cells and the occupied list.
	for i := 0; i < 3; i++ {
		g.Move(1, a, b)
		g.Move(1, b, a)
	}
	g.Insert(2, b)
	g.Remove(2, b)
	avg := testing.AllocsPerRun(200, func() {
		g.Move(1, a, b)
		g.Insert(2, a)
		g.Remove(2, a)
		g.Move(1, b, a)
	})
	if avg != 0 {
		t.Errorf("steady-state move/remove churn allocates %v per run, want 0", avg)
	}
	if got := len(g.occupied); got != 2 {
		t.Fatalf("occupied list holds %d cells, want 2 (no duplicates)", got)
	}
	g.Reset()
	if got := g.Len(); got != 0 {
		t.Fatalf("Len = %d after Reset, want 0", got)
	}
	g.Insert(9, a)
	if got := g.Within(a, 1); len(got) != 1 || got[0] != 9 {
		t.Fatalf("post-Reset state polluted: Within = %v", got)
	}
}

// TestVisitWithinHugeRadius: a hostile or degenerate radius must never
// turn the cell walk into an unbounded loop — the query box is clamped
// into the grid's extent, which yields identical results (points beyond
// it sit in its border cells) at cost bounded by the extent. Points
// beyond the extent the cell budget allows must not grow the cell table
// past it either.
func TestVisitWithinHugeRadius(t *testing.T) {
	g := NewGrid(32)
	pts := map[int64]Vec{0: V2(0, 0), 1: V2(100, 200), 2: V2(255, 255), 3: V2(-50, 12)}
	for id, p := range pts {
		g.Insert(id, p)
	}
	// 1e9 walks ~4e15 cells unclamped; 7e10+ overflows an int32 cell
	// coordinate; Inf never terminates. All must return every point.
	for _, r := range []float64{1e9, 7e10, 1e18, math.Inf(1)} {
		if got := len(g.Within(V2(128, 128), r)); got != len(pts) {
			t.Errorf("r=%v: %d points, want %d", r, got, len(pts))
		}
	}
	// A huge box disjoint from the extent finds nothing (and must not
	// fabricate an intersection out of the clamp).
	if got := g.Within(V2(1e8, 1e8), 1e6); len(got) != 0 {
		t.Errorf("disjoint huge query returned %v", got)
	}
	// Degenerate radii stay rejected.
	for _, r := range []float64{math.NaN(), -1, math.Inf(-1)} {
		if got := g.Within(V2(128, 128), r); len(got) != 0 {
			t.Errorf("r=%v returned %v, want nothing", r, got)
		}
	}

	// Points beyond the budget's reach, infinite and NaN: the grid keeps
	// them (clamped into border cells) and answers exactly, and neither
	// its cell table nor this process's heap grows past the budget.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	next := int64(len(pts))
	for _, x := range append([]float64{1e6, -3e5, 40000}, hostile...) {
		for _, y := range append([]float64{7, 1e7}, hostile...) {
			pts[next] = V2(x, y)
			g.Insert(next, V2(x, y))
			next++
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(g.cells) > maxGridCells {
		t.Errorf("cell table holds %d cells, budget %d", len(g.cells), maxGridCells)
	}
	budget := uint64(maxGridCells)*uint64(unsafe.Sizeof(gridCell{})) + 1<<20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > int64(budget) {
		t.Errorf("heap grew %d bytes for %d points, budget %d", grew, len(pts), budget)
	}
	for _, c := range []Vec{V2(128, 128), V2(1e6, 7), V2(1e12, 1e12), V2(math.Inf(1), 0), V2(math.NaN(), 0)} {
		for _, r := range []float64{10, 1e6, 1e12, math.Inf(1), math.NaN()} {
			if got, want := sortedWithin(g, c, r), bruteWithin(pts, c, r); !slices.Equal(got, want) {
				t.Errorf("Within(%v, %v) = %v, want %v", c, r, got, want)
			}
		}
	}
	runtime.KeepAlive(g)

	// An empty grid ignores every radius.
	g.Reset()
	if got := g.Within(V2(0, 0), math.Inf(1)); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
}

// TestGridHostileFirstPoint: a far first point must not anchor the
// learnt extent away from the land, which would clamp every later point
// into one border cell and turn each query into a scan of them all. An
// extent that covers the land keeps every land point in its own cell.
func TestGridHostileFirstPoint(t *testing.T) {
	for _, h := range hostile {
		g := NewGrid(10)
		g.Insert(0, V2(h, h))
		for i := 1; i <= 100; i++ {
			g.Insert(int64(i), V2(float64(i)*2.5, float64(i%10)*25))
		}
		if g.x0 > 0 || g.y0 > 0 || g.x0+g.w < 26 || g.y0+g.h < 23 {
			t.Errorf("first point %v: extent [%d,%d)×[%d,%d) does not cover the land", h, g.x0, g.x0+g.w, g.y0, g.y0+g.h)
		}
	}
}
