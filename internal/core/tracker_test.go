package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/snap"
	"slmob/internal/trace"
)

// eventStream builds the stream TestContactEventsDifferential replays: a
// stationary cluster that stays in contact throughout, walkers, avatars
// whose seated flag toggles (they leave and rejoin the graph under the
// same id), light login/logout churn, and three scripted events:
//
//   - at recycleAt a cluster member logs out and a newcomer arrives at
//     its position in the same snapshot, so the workspace hands the
//     departed avatar's slot to the newcomer within one call;
//   - at each index in scrambleAt every avatar but the cluster teleports,
//     past the churn threshold, so the workspace falls back to a rebuild
//     while the cluster's contacts are open.
func eventStream(seed uint64, n, recycleAt int, scrambleAt []int) (snaps []trace.Snapshot, departed, newcomer trace.AvatarID) {
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	randPos := func() geom.Vec { return geom.V2(20+100*next(), 20+100*next()) }
	type av struct {
		id     trace.AvatarID
		pos    geom.Vec
		seated bool
		fixed  bool
	}
	var pop []av
	nextID := trace.AvatarID(1)
	for i := 0; i < 5; i++ { // the cluster
		pop = append(pop, av{id: nextID, pos: geom.V2(60+3*float64(i), 60), fixed: true})
		nextID++
	}
	for i := 0; i < 45; i++ {
		pop = append(pop, av{id: nextID, pos: randPos()})
		nextID++
	}
	snaps = make([]trace.Snapshot, n)
	for k := 0; k < n; k++ {
		switch {
		case k == recycleAt:
			departed = pop[2].id
			pop[2].id = nextID
			newcomer = nextID
			nextID++
		case slices.Contains(scrambleAt, k):
			for i := range pop {
				if !pop[i].fixed {
					pop[i].pos = randPos()
				}
			}
		default:
			for i := 0; i < len(pop); {
				if !pop[i].fixed && next() < 0.02 { // logout
					pop[i] = pop[len(pop)-1]
					pop = pop[:len(pop)-1]
					continue
				}
				i++
			}
			if next() < 0.6 { // login
				pop = append(pop, av{id: nextID, pos: randPos()})
				nextID++
			}
			for i := range pop {
				if pop[i].fixed {
					continue
				}
				switch u := next(); {
				case u < 0.05:
					pop[i].seated = !pop[i].seated
				case u < 0.35:
					pop[i].pos = geom.V2(pop[i].pos.X+8*(next()-0.5), pop[i].pos.Y+8*(next()-0.5))
				}
			}
		}
		samples := make([]trace.Sample, 0, len(pop))
		for _, a := range pop {
			samples = append(samples, trace.Sample{ID: a.id, Pos: a.pos, Seated: a.seated})
		}
		snaps[k] = trace.Snapshot{T: int64(k+1) * 10, Samples: samples}
	}
	return snaps, departed, newcomer
}

// encodeTrackerBytes serialises a tracker as a checkpoint would.
func encodeTrackerBytes(ct *contactTracker) []byte {
	w := snap.NewWriter(KindAnalyzer)
	encodeTracker(w, ct)
	return w.Finish()
}

// restoreTracker decodes a tracker from encodeTrackerBytes output, as a
// checkpoint restore does, and binds it to cs.
func restoreTracker(t *testing.T, blob []byte, tau, lastT int64, cs *ContactSet) *contactTracker {
	t.Helper()
	r, err := snap.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	ct := newContactTracker(tau)
	if err := decodeTracker(r, ct, lastT); err != nil {
		t.Fatal(err)
	}
	ct.bind(cs)
	return ct
}

// diffContactSets compares the event-derived counters and multisets of
// two contact sets.
func diffContactSets(got, want *ContactSet) string {
	switch {
	case !got.CT.Equal(want.CT):
		return fmt.Sprintf("CT multiset differs (%d vs %d samples)", got.CT.N(), want.CT.N())
	case !got.ICT.Equal(want.ICT):
		return fmt.Sprintf("ICT multiset differs (%d vs %d samples)", got.ICT.N(), want.ICT.N())
	case !got.FT.Equal(want.FT):
		return fmt.Sprintf("FT multiset differs (%d vs %d samples)", got.FT.N(), want.FT.N())
	case got.Censored != want.Censored || got.NeverContacted != want.NeverContacted || got.Pairs != want.Pairs:
		return fmt.Sprintf("censored/never/pairs = %d/%d/%d, want %d/%d/%d",
			got.Censored, got.NeverContacted, got.Pairs, want.Censored, want.NeverContacted, want.Pairs)
	}
	return ""
}

// TestContactEventsDifferential is the gate on edge-event contact
// tracking. The tracker under test reads a default workspace's edge
// changes; the oracle is the full scan, driven by a workspace that
// rebuilds every snapshot (SetChurnThreshold(-1)) and so never reports
// changes. After every snapshot, and at finish, the two must agree on
// CT, ICT, FT, censored, never-contacted and pair counts, window by
// window. The stream recycles a slot within one call, falls back to
// rebuilds mid-stream with contacts open, rebinds windows, and
// checkpoints and restores the tracker under test with contacts open
// (its next snapshot is then a scan on a fresh workspace). A tracker
// that ended an ongoing contact at a rebuild would emit extra CT and
// ICT samples and fail here.
//
// A third tracker scans the graph of the workspace under test. Its pair
// table must encode to the same checkpoint bytes as the event tracker's
// after every snapshot: checkpoints write pairs in key order, so this
// pins that both hold the same pairs with the same per-pair state,
// wherever each table placed them.
func TestContactEventsDifferential(t *testing.T) {
	const (
		tau       = 10
		n         = 240
		recycleAt = 40
		restoreAt = 150
		window    = 25
	)
	scrambleAt := []int{70, 71, 120, 200}
	for _, r := range []float64{10, 30} {
		t.Run(fmt.Sprintf("r=%g", r), func(t *testing.T) {
			snaps, departed, newcomer := eventStream(uint64(r), n, recycleAt, scrambleAt)
			ws := graph.NewWorkspace()
			oracleWS := graph.NewWorkspace()
			oracleWS.SetChurnThreshold(-1)
			ev, oracle, twin := newContactTracker(tau), newContactTracker(tau), newContactTracker(tau)
			rebind := func() {
				ev.bind(newContactSet(r, tau))
				oracle.bind(newContactSet(r, tau))
				twin.bind(newContactSet(r, tau))
			}
			rebind()
			firstSeen := make(map[trace.AvatarID]int64)
			var sc snapScratch
			var events, rebuilds int64
			for k, s := range snaps {
				if k > 0 && k%window == 0 {
					rebind()
				}
				if k == restoreAt {
					if ev.open == 0 {
						t.Fatal("no contact open at the checkpoint")
					}
					events += ws.Stats().Incremental
					rebuilds += ws.Stats().FullRebuilds
					blob := encodeTrackerBytes(ev)
					ev = restoreTracker(t, blob, tau, ev.lastT, ev.cs)
					twin = restoreTracker(t, blob, tau, twin.lastT, twin.cs)
					ws = graph.NewWorkspace()
				}
				sc.fill(s, firstSeen, false)
				first := k == 0
				ws.ApplyPositions(sc.gids, sc.positions, r)
				ev.observe(sc.ids, sc.fsT, ws, s.T, first)
				twin.scan(sc.ids, sc.fsT, ws.Graph(), s.T, first)
				twin.lastT = s.T
				oracleWS.ApplyPositions(sc.gids, sc.positions, r)
				oracle.observe(sc.ids, sc.fsT, oracleWS, s.T, first)

				if k == recycleAt {
					added, removed, ok := ws.EdgeChanges()
					if !ok {
						t.Fatalf("snapshot %d: recycling snapshot was not patched", k)
					}
					gone := slices.ContainsFunc(removed, func(e graph.Unlink) bool {
						return e.A == uint64(departed) || e.B == uint64(departed)
					})
					came := slices.ContainsFunc(added, func(e graph.Link) bool {
						return sc.ids[e.U] == newcomer || sc.ids[e.V] == newcomer
					})
					if !gone || !came {
						t.Fatalf("snapshot %d: departure unlinked=%v, arrival linked=%v; want both", k, gone, came)
					}
				}
				if d := diffContactSets(ev.cs, oracle.cs); d != "" {
					t.Fatalf("snapshot %d (t=%d): %s", k, s.T, d)
				}
				if ev.open != oracle.open {
					t.Fatalf("snapshot %d: %d contacts open, oracle has %d", k, ev.open, oracle.open)
				}
				if !bytes.Equal(encodeTrackerBytes(ev), encodeTrackerBytes(twin)) {
					t.Fatalf("snapshot %d: event tracker's pair table encodes differently from a scan of the same graph", k)
				}
			}
			events += ws.Stats().Incremental
			rebuilds += ws.Stats().FullRebuilds
			// The first build, each scramble and the restore rebuild.
			if want := int64(2 + len(scrambleAt)); rebuilds < want || events == 0 {
				t.Fatalf("stream exercised %d rebuilds and %d patched snapshots, want at least %d and some", rebuilds, events, want)
			}
			ev.finish(len(firstSeen))
			oracle.finish(len(firstSeen))
			if d := diffContactSets(ev.cs, oracle.cs); d != "" {
				t.Fatalf("finish: %s", d)
			}
			if oracle.table.n < 2*pairTableMinSize {
				t.Fatalf("only %d pairs: the pair table never grew", oracle.table.n)
			}
		})
	}
}
