package core

import (
	"fmt"
	"math"
	"slices"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// ZoneOccupation divides the land into square cells of edge cellSize
// metres and returns one occupancy count per (cell, snapshot) pair —
// the population behind the paper's Fig. 3 CDF (L = 20 m). Empty cells
// contribute zeros: the paper's observation is precisely that "a large
// fraction of the land has no users".
func ZoneOccupation(tr *trace.Trace, landSize, cellSize float64) ([]float64, error) {
	if landSize <= 0 || cellSize <= 0 {
		return nil, fmt.Errorf("core: invalid zone parameters land=%v cell=%v", landSize, cellSize)
	}
	n := int(math.Ceil(landSize / cellSize))
	cells := n * n
	counts := make([]int, cells)
	// One sample per (cell, snapshot): size the output up front instead of
	// re-growing a multi-megabyte slice doubling by doubling, and reuse
	// the single counts buffer across snapshots (matching the streaming
	// zone accumulator's behaviour).
	out := make([]float64, 0, len(tr.Snapshots)*cells)
	for _, snap := range tr.Snapshots {
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range snap.Samples {
			if s.Seated {
				continue
			}
			if k, ok := zoneCell(s.Pos, cellSize, n); ok {
				counts[k]++
			}
		}
		for _, c := range counts {
			out = append(out, float64(c))
		}
	}
	return out, nil
}

// zoneCell returns the index of the cell holding p on an n×n grid of
// size-metre cells, and false when p lies outside the modelled footprint
// [0, n·size)². Cell coordinates are floored, not truncated toward zero,
// so a sample just below 0 falls outside rather than into row or
// column 0.
//
//slmob:hotpath
func zoneCell(p geom.Vec, size float64, n int) (int, bool) {
	cx, cy := math.Floor(p.X/size), math.Floor(p.Y/size)
	if !(cx >= 0 && cy >= 0 && cx < float64(n) && cy < float64(n)) {
		return 0, false
	}
	return int(cy)*n + int(cx), true
}

// TripStats aggregates the per-session trip metrics of §3.2 (Fig. 4).
// All three slices are kept in the canonical session order: login time,
// then avatar ID.
type TripStats struct {
	// TravelLength is the distance covered by each session, computed as
	// the sampled ground-plane path length from login to logout (Fig. 4a).
	TravelLength []float64
	// EffectiveTravelTime is the time spent moving — pause intervals
	// excluded — per session (Fig. 4b).
	EffectiveTravelTime []float64
	// TravelTime is the total connection time per session (Fig. 4c, the
	// "login time").
	TravelTime []float64

	// sess retains the per-session records with their (login, id) sort
	// keys, so window TripStats can be merged back into the whole-trace
	// ordering bit-identically.
	sess []closedSession
}

// Clone returns an independent deep copy. The slices are already in
// canonical order, so this is a plain copy — no re-sort. Empty slices
// normalise to nil, matching what a fresh buildTripStats produces (the
// parity tests compare TripStats with reflect.DeepEqual).
func (ts *TripStats) Clone() *TripStats {
	cloned := func(s []float64) []float64 {
		if len(s) == 0 {
			return nil
		}
		return slices.Clone(s)
	}
	out := &TripStats{
		TravelLength:        cloned(ts.TravelLength),
		EffectiveTravelTime: cloned(ts.EffectiveTravelTime),
		TravelTime:          cloned(ts.TravelTime),
	}
	if len(ts.sess) > 0 {
		out.sess = slices.Clone(ts.sess)
	}
	return out
}

// Trips computes trip metrics over the trace's sessions. A sample-to-
// sample displacement above moveEps metres marks the interval as "moving"
// for the effective-travel-time metric; moveEps <= 0 selects a default of
// 0.5 m, below which coarse 1 m map quantisation produces phantom motion.
func Trips(tr *trace.Trace, moveEps float64, sessionGap int64) *TripStats {
	if moveEps <= 0 {
		moveEps = 0.5
	}
	var closed []closedSession
	for _, sess := range tr.Sessions(sessionGap) {
		var length float64
		var moving int64
		var prev *trace.TimedPos
		for i := range sess.Samples {
			cur := &sess.Samples[i]
			if cur.Seated {
				continue
			}
			if prev != nil {
				d := cur.Pos.DistXY(prev.Pos)
				length += d
				if d > moveEps {
					moving += cur.T - prev.T
				}
			}
			prev = cur
		}
		closed = append(closed, closedSession{
			id:       sess.ID,
			login:    sess.Login(),
			duration: sess.Duration(),
			length:   length,
			moving:   moving,
		})
	}
	return buildTripStats(closed, nil)
}

// NormalizeSeated returns a copy of the trace in which any sample at the
// exact origin is flagged as seated. Wire-protocol monitors cannot see the
// seated state directly — they only see the {0,0,0} coordinate quirk the
// paper documents — so analysis of crawler traces applies this repair
// before computing spatial metrics.
func NormalizeSeated(tr *trace.Trace) *trace.Trace {
	out := trace.New(tr.Land, tr.Tau)
	for k, v := range tr.Meta {
		out.Meta[k] = v
	}
	for _, snap := range tr.Snapshots {
		ns := trace.Snapshot{T: snap.T, Samples: make([]trace.Sample, len(snap.Samples))}
		copy(ns.Samples, snap.Samples)
		for i := range ns.Samples {
			if ns.Samples[i].Pos.IsZero() {
				ns.Samples[i].Seated = true
			}
		}
		out.Snapshots = append(out.Snapshots, ns)
	}
	return out
}

// landSizeOf extracts the land size from trace metadata, defaulting to
// the Second Life standard 256 m when the key is absent. A present but
// malformed value is a decode error, not a silent fallback.
func landSizeOf(tr *trace.Trace) (float64, error) {
	v, err := (trace.Info{Meta: tr.Meta}).Size()
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 256, nil
	}
	return v, nil
}
