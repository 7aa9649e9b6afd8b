package geom

// maxGridCells bounds a grid's cell table. The largest extent the
// pipeline indexes is the estate-global contact graph of the 8×8 city
// estate: 2048 m at the 10 m Bluetooth range, 205² ≈ 42k cells. 2^18
// cells leave room for a 16×16 estate at that range (410² ≈ 168k) and
// cap the table at 8 MiB, so a grid fed hostile coordinates cannot grow
// without bound.
const maxGridCells = 1 << 18

// Grid is a uniform grid of square cells over the ground plane, answering
// "all points within r of p" queries without O(n^2) scans. The cells
// live in one dense array over a rectangular extent learnt from the
// points themselves: it starts as the origin's cell, and a point
// outside it widens the extent (at least doubling the axis it leaves)
// until doubling would exceed maxGridCells; one last widening then
// reaches exactly the point's cell if that fits, and the extent is
// final. A point whose cell lies outside the extent and cannot widen it
// — far, ±Inf or NaN coordinates — is stored in the nearest border cell.
// Queries clamp their cell box into the extent the same way and
// distance-check every point they visit, so clamping costs time, never
// correctness, and memory stays bounded whatever the input.
//
// Queries visit cells column by column (x outer, y inner) and each
// cell's points in insertion order, with removal swapping the cell's
// last point into the gap; callers that derive adjacency order from the
// visit order (graph.Workspace) rely on this staying fixed.
//
// The grid is rebuilt per snapshot by the analysis pipeline and per tick
// by the served AOI snapshot, and patched in place (Remove, Move) by the
// incremental path of graph.Workspace.ApplyPositions. Reset, Insert,
// Remove, Move and VisitWithin allocate nothing once the extent and the
// cells' capacities have warmed up.
//
// The grid is not safe for concurrent use.
type Grid struct {
	cell float64
	// The extent covers cell columns [x0, x0+w) and rows [y0, y0+h);
	// cell (cx, cy) is cells[(cx-x0)*h + cy-y0], column-major so that a
	// query's inner loop walks adjacent cells.
	x0, y0, w, h int
	cells        []gridCell
	// occupied lists the cells holding points since the last Reset, so
	// Reset truncates exactly those cells — O(points), not O(extent).
	// The listed flag on each cell keeps the list duplicate-free even
	// when Remove empties a cell that Insert later refills, so a
	// never-Reset incremental grid cannot grow occupied without bound.
	occupied []int32
	// final marks an extent that has reached the cell budget: widening
	// stops there, so a stream of points just beyond it cannot re-lay a
	// budget-sized table once per point.
	final bool
}

type gridEntry struct {
	id  int64
	pos Vec
}

// gridCell is one cell's point list plus its membership flag for the
// occupied list.
type gridCell struct {
	listed  bool
	entries []gridEntry
}

// NewGrid returns a grid with the given cell edge length in metres.
// A cell size close to the dominant query radius performs best.
func NewGrid(cell float64) *Grid {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{cell: cell}
}

// CellSize returns the configured cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Reset removes all points while retaining the extent and every cell's
// capacity.
//
//slmob:hotpath
func (g *Grid) Reset() {
	for _, k := range g.occupied {
		c := &g.cells[k]
		c.entries = c.entries[:0]
		c.listed = false
	}
	g.occupied = g.occupied[:0]
}

// Insert adds a point with an opaque identifier.
//
//slmob:hotpath
func (g *Grid) Insert(id int64, p Vec) {
	g.add(g.place(p), id, p)
}

// add appends a point to cell k, listing the cell if it is not yet.
//
//slmob:hotpath
func (g *Grid) add(k int, id int64, p Vec) {
	c := &g.cells[k]
	if !c.listed {
		c.listed = true
		g.occupied = append(g.occupied, int32(k))
	}
	c.entries = append(c.entries, gridEntry{id: id, pos: p})
}

// Remove deletes the point with the given identifier stored at p (the
// position it was inserted or last moved to). It reports whether the
// point was found. The cell stays on the occupied list so a later
// re-insert does not duplicate it; Reset clears the list as usual.
//
//slmob:hotpath
func (g *Grid) Remove(id int64, p Vec) bool {
	if len(g.cells) == 0 {
		return false
	}
	return g.cut(g.index(p), id)
}

// cut swap-removes the point id from cell k.
//
//slmob:hotpath
func (g *Grid) cut(k int, id int64) bool {
	c := &g.cells[k]
	for i := range c.entries {
		if c.entries[i].id == id {
			last := len(c.entries) - 1
			c.entries[i] = c.entries[last]
			c.entries = c.entries[:last]
			return true
		}
	}
	return false
}

// Move relocates the point with the given identifier from its stored
// position to a new one, updating the stored position in place when both
// fall in the same cell. It reports whether the point was found at from.
//
//slmob:hotpath
func (g *Grid) Move(id int64, from, to Vec) bool {
	if len(g.cells) == 0 {
		return false
	}
	// Place the destination first: widening the extent renumbers cells.
	kt := g.place(to)
	kf := g.index(from)
	if kf == kt {
		c := &g.cells[kf]
		for i := range c.entries {
			if c.entries[i].id == id {
				c.entries[i].pos = to
				return true
			}
		}
		return false
	}
	if !g.cut(kf, id) {
		return false
	}
	g.add(kt, id, to)
	return true
}

// Len returns the number of stored points.
func (g *Grid) Len() int {
	n := 0
	for _, k := range g.occupied {
		n += len(g.cells[k].entries)
	}
	return n
}

// VisitWithin calls fn for every stored point whose ground-plane distance
// to p is at most r, including any point stored at p itself. Iteration
// stops early if fn returns false. However large r is, the walk covers
// at most the grid's extent.
//
//slmob:hotpath
func (g *Grid) VisitWithin(p Vec, r float64, fn func(id int64, q Vec) bool) {
	// Rejects negative and NaN radii, and NaN centres, from which no
	// distance is at most r.
	if !(r >= 0) || p.X != p.X || p.Y != p.Y || len(g.occupied) == 0 {
		return
	}
	r2 := r * r
	minX, maxX := clampSpan(floorDiv(p.X-r, g.cell), floorDiv(p.X+r, g.cell), g.x0, g.w)
	minY, maxY := clampSpan(floorDiv(p.Y-r, g.cell), floorDiv(p.Y+r, g.cell), g.y0, g.h)
	for cx := minX; cx <= maxX; cx++ {
		col := g.cells[cx*g.h : (cx+1)*g.h]
		for cy := minY; cy <= maxY; cy++ {
			for _, e := range col[cy].entries {
				dx, dy := e.pos.X-p.X, e.pos.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					if !fn(e.id, e.pos) {
						return
					}
				}
			}
		}
	}
}

// Within returns the identifiers of all points within r of p, in
// unspecified order.
func (g *Grid) Within(p Vec, r float64) []int64 {
	var ids []int64
	g.VisitWithin(p, r, func(id int64, _ Vec) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// CountWithin returns the number of points within r of p.
func (g *Grid) CountWithin(p Vec, r float64) int {
	n := 0
	g.VisitWithin(p, r, func(int64, Vec) bool { n++; return true })
	return n
}

// index returns the cell holding a point stored at p under the current
// extent, which must be non-empty: p's own cell when the extent covers
// it, else the border cell p clamps to.
//
//slmob:hotpath
func (g *Grid) index(p Vec) int {
	fx, fy := floorDiv(p.X, g.cell), floorDiv(p.Y, g.cell)
	if fx >= float64(g.x0) && fx < float64(g.x0+g.w) && fy >= float64(g.y0) && fy < float64(g.y0+g.h) {
		return (int(fx)-g.x0)*g.h + int(fy) - g.y0
	}
	return clampCell(fx, g.x0, g.w)*g.h + clampCell(fy, g.y0, g.h)
}

// place returns the cell a new point at p goes to, first widening the
// extent to cover p's cell when the cell budget allows.
//
//slmob:hotpath
func (g *Grid) place(p Vec) int {
	fx, fy := floorDiv(p.X, g.cell), floorDiv(p.Y, g.cell)
	if fx >= float64(g.x0) && fx < float64(g.x0+g.w) && fy >= float64(g.y0) && fy < float64(g.y0+g.h) {
		return (int(fx)-g.x0)*g.h + int(fy) - g.y0
	}
	g.widen(fx, fy)
	return g.index(p)
}

// widen grows the extent to cover cell (fx, fy), at least doubling each
// axis it extends, or exactly to the cell when doubling would exceed
// maxGridCells, after which the extent is final. It leaves the extent as
// it is when the extent is final, even the exact extension exceeds the
// budget, or a coordinate is not a representable cell. An empty grid
// starts from the origin's cell, where land and estate coordinates
// start, so that a hostile first point cannot anchor the extent far from
// the points that follow.
func (g *Grid) widen(fx, fy float64) {
	if len(g.cells) == 0 {
		g.rebuild(0, 0, 1, 1)
	}
	const lim = 1 << 62 // floorDiv's exact-integer range
	if g.final || !(fx >= -lim && fx <= lim && fy >= -lim && fy <= lim) {
		return
	}
	cx, cy := int(fx), int(fy)
	x0, x1 := g.x0, g.x0+g.w
	y0, y1 := g.y0, g.y0+g.h
	tx0, tx1 := min(x0, cx), max(x1, cx+1)
	ty0, ty1 := min(y0, cy), max(y1, cy+1)
	if tx0 < x0 {
		x0 = min(tx0, x0-g.w)
	}
	if tx1 > x1 {
		x1 = max(tx1, x1+g.w)
	}
	if ty0 < y0 {
		y0 = min(ty0, y0-g.h)
	}
	if ty1 > y1 {
		y1 = max(ty1, y1+g.h)
	}
	if !fitsBudget(x1-x0, y1-y0) {
		if !fitsBudget(tx1-tx0, ty1-ty0) {
			return
		}
		x0, x1, y0, y1 = tx0, tx1, ty0, ty1
		g.final = true
	}
	g.rebuild(x0, y0, x1-x0, y1-y0)
}

// fitsBudget reports whether a w×h extent stays within maxGridCells,
// without overflowing on absurd spans.
func fitsBudget(w, h int) bool {
	return w > 0 && h > 0 && w <= maxGridCells && h <= maxGridCells && w*h <= maxGridCells
}

// rebuild re-lays the cell table over a new extent containing the old
// one. Every cell keeps its points, order and capacity; points that were
// clamped into a border cell move to the cell they now belong to. It
// allocates the new table, which is why it and widen are not hot-path
// functions: an extent that at least doubles per widening settles after
// a handful of calls and then never widens again.
func (g *Grid) rebuild(x0, y0, w, h int) {
	old, ox0, oy0, ow, oh := g.cells, g.x0, g.y0, g.w, g.h
	cells := make([]gridCell, w*h)
	for ox := 0; ox < ow; ox++ {
		copy(cells[(ox+ox0-x0)*h+oy0-y0:], old[ox*oh:(ox+1)*oh])
	}
	for i, k := range g.occupied {
		g.occupied[i] = int32((int(k)/oh+ox0-x0)*h + int(k)%oh + oy0 - y0)
	}
	g.cells, g.x0, g.y0, g.w, g.h = cells, x0, y0, w, h
	// Re-home clamped points, keeping each cell's remaining order.
	for n, i := len(g.occupied), 0; i < n; i++ {
		k := int(g.occupied[i])
		c := &g.cells[k]
		kept := c.entries[:0]
		for _, e := range c.entries {
			if j := g.index(e.pos); j != k {
				g.add(j, e.id, e.pos)
				continue
			}
			kept = append(kept, e)
		}
		c.entries = kept
	}
}

// clampCell maps a floored cell coordinate onto the extent's cells
// [0, n) starting at coordinate lo; NaN maps to 0.
//
//slmob:hotpath
func clampCell(f float64, lo, n int) int {
	if !(f > float64(lo)) {
		return 0
	}
	if f >= float64(lo+n-1) {
		return n - 1
	}
	return int(f) - lo
}

// clampSpan maps a query's floored cell span [fmin, fmax] onto the
// extent's cells [0, n) starting at coordinate lo. Clamping is monotone,
// so every point in the span — clamped or not — lies in a returned cell;
// a NaN bound (from ±Inf − ±Inf) widens to the extent's edge.
//
//slmob:hotpath
func clampSpan(fmin, fmax float64, lo, n int) (int, int) {
	a, b := 0, n-1
	if fmin > float64(lo) {
		a = clampCell(fmin, lo, n)
	}
	if fmax < float64(lo+n-1) {
		b = clampCell(fmax, lo, n)
	}
	return a, b
}

// floorDiv returns floor(x/cell) as a float64 suitable for int conversion,
// correct for negative coordinates as well.
func floorDiv(x, cell float64) float64 {
	q := x / cell
	if !(q >= -(1<<62) && q <= 1<<62) {
		// NaN, ±Inf, or beyond int64's exact range: the float→int64
		// conversion below would be implementation-defined, and any
		// float64 of this magnitude is already an integer, so q is its
		// own floor. Grid methods clamp such values into the extent
		// before any int conversion.
		return q
	}
	f := float64(int64(q))
	if q < 0 && q != f {
		f--
	}
	return f
}
