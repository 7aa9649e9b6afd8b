package main

import (
	"slmob"
	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Stage passes time one layer on its own, outside any measured pass, so
// layers that the analysis and the served tick call internally still
// get a span per call. Their spans carry trace id 0.
const stageTrace = 0

// graphStage replays every stream's non-seated positions through a fresh
// graph workspace per communication range, making the calls the
// analyzer makes per snapshot: ApplyPositions always, Diameter and
// MeanClustering when anyone is standing.
func graphStage(r *run, streams [][]trace.Snapshot) {
	tr := r.tr
	root := tr.begin(stageTrace, 0, "bench.graph_stage")
	var ids []uint64
	var pos []geom.Vec
	for _, snaps := range streams {
		for _, rng := range []float64{slmob.BluetoothRange, slmob.WiFiRange} {
			ws := graph.NewWorkspace()
			for _, s := range snaps {
				ids, pos = ids[:0], pos[:0]
				for _, sm := range s.Samples {
					if !sm.Seated {
						ids = append(ids, uint64(sm.ID))
						pos = append(pos, sm.Pos)
					}
				}
				id := tr.begin(stageTrace, root, "graph.apply")
				ws.ApplyPositions(ids, pos, rng)
				tr.end(id)
				if len(pos) == 0 {
					continue
				}
				id = tr.begin(stageTrace, root, "graph.diameter")
				ws.Diameter()
				tr.end(id)
				id = tr.begin(stageTrace, root, "graph.clustering")
				ws.MeanClustering()
				tr.end(id)
			}
		}
	}
	tr.end(root)
	d := tr.durations("graph.")
	r.set("graph.apply_s", sum(d["graph.apply"])/1e3)
	r.set("graph.diameter_s", sum(d["graph.diameter"])/1e3)
	r.set("graph.clustering_s", sum(d["graph.clustering"])/1e3)
}

// worldStage steps a fresh simulation of the estate, serially as the
// served estate does by default, and reports the mean cost of one step
// (one simulated second) and the handoffs the steps produced.
func worldStage(r *run, est slmob.Estate, steps int64) error {
	if est.Duration < steps {
		est.Duration = steps
	}
	sim, err := world.NewEstateSim(est)
	if err != nil {
		return err
	}
	defer sim.Close()
	tr := r.tr
	root := tr.begin(stageTrace, 0, "bench.world_stage")
	for i := int64(0); i < steps; i++ {
		id := tr.begin(stageTrace, root, "world.step")
		sim.Step()
		tr.end(id)
	}
	tr.end(root)
	r.set("world.step_us", sum(tr.durations("world.step")["world.step"])*1e3/float64(steps))
	r.set("world.handoffs", float64(sim.Crossings()+sim.Teleports()))
	r.set("world.blocked_handoffs", float64(sim.BlockedHandoffs()))
	return nil
}

// reportWorkspace reports the incremental graph engine's counters: how
// many graphs were built, and which share of builds, diameters and
// clustering coefficients were served from the previous snapshot.
func reportWorkspace(r *run, st graph.WorkspaceStats) {
	r.set("graph.builds", float64(st.Snapshots))
	r.set("graph.incremental_frac", ratio(st.Incremental, st.Snapshots))
	r.set("graph.diam_reuse_frac", ratio(st.DiamReused, st.DiamReused+st.DiamComputed))
	r.set("graph.cc_reuse_frac", ratio(st.CCReused, st.CCReused+st.CCComputed))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mean is the arithmetic mean of xs; NaN for an empty slice.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
