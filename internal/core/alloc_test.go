package core

import (
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// allocSnapshots builds a deterministic stream over a fixed avatar
// population: a stationary contact cluster, a pair that oscillates in
// and out of range (so contacts start and end, exercising CT/ICT
// emission), isolated walkers, a paused avatar whose position jitters
// by a centimetre, and two avatars that take turns at one spot beside
// the cluster, so every snapshot has a departure and an arrival that
// recycles its graph slot and breaks and forms contacts. After warm-up
// every distinct metric value, grid cell, pair slot, and scratch buffer
// has been seen, so Observe must allocate nothing.
func allocSnapshots(n int) []trace.Snapshot {
	snaps := make([]trace.Snapshot, n)
	for i := 0; i < n; i++ {
		t := int64(i+1) * 10
		phase := float64(i%6) * 4 // 0..20 m swing
		snaps[i] = trace.Snapshot{T: t, Samples: []trace.Sample{
			// Stationary cluster in contact at r=10.
			{ID: 1, Pos: geom.V2(50, 50)},
			{ID: 2, Pos: geom.V2(55, 50)},
			{ID: 3, Pos: geom.V2(50, 55)},
			// Oscillating pair: in range on some snapshots, out on others.
			{ID: 4, Pos: geom.V2(120, 80)},
			{ID: 5, Pos: geom.V2(125+phase, 80)},
			// Isolated walkers cycling through a fixed set of cells.
			{ID: 6, Pos: geom.V2(200, 40+phase)},
			{ID: 7, Pos: geom.V2(30, 200+phase)},
			// A seated avatar (kept alive, no movement contribution).
			{ID: 8, Pos: geom.V2(10, 10), Seated: true},
			// Micro-jitter: moves without changing any edge.
			{ID: 9, Pos: geom.V2(180+0.01*float64(i%2), 180)},
			// Turn-taker: avatar 10 and 11 alternate at one spot.
			{ID: trace.AvatarID(10 + i%2), Pos: geom.V2(52, 58)},
		}}
	}
	return snaps
}

// TestObserveZeroAllocSteadyState pins the tentpole contract: once the
// analyzer has warmed up, folding a snapshot into the running analysis
// performs zero heap allocations.
func TestObserveZeroAllocSteadyState(t *testing.T) {
	a, err := NewAnalyzer("alloc", 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm := allocSnapshots(600)
	for _, snap := range warm {
		if err := a.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	// Measured phase: identical population, fresh timestamps.
	const runs = 100
	measured := allocSnapshots(600 + runs + 1)[600:]
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		if err := a.Observe(measured[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state Observe allocates %v per snapshot, want 0", avg)
	}
	if st := a.WorkspaceStats(); st.Incremental == 0 || st.EdgesAdded == 0 || st.EdgesRemoved == 0 {
		t.Fatalf("pin did not exercise the edge-event path: %+v", st)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeWorkersInvariance: fanning the per-range passes across
// workers must not change a single bit of the analysis.
func TestRangeWorkersInvariance(t *testing.T) {
	snaps := allocSnapshots(400)
	run := func(workers int) *Analysis {
		cfg := Config{Ranges: []float64{5, 10, 20, 40, 80}, RangeWorkers: workers}
		a, err := NewAnalyzer("fan", 10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range snaps {
			if err := a.Observe(snap); err != nil {
				t.Fatal(err)
			}
		}
		an, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	sequential := run(1)
	for _, workers := range []int{2, 3, 8} {
		parallel := run(workers)
		for _, d := range DiffAnalyses(parallel, sequential) {
			t.Errorf("workers=%d: %s", workers, d)
		}
	}
}

// TestContactTrackerSurvivesTableGrowth forces the pair table through
// several grows mid-stream (thousands of distinct pairs) and checks the
// counters stay coherent: a dense snapshot of k avatars has k·(k-1)/2
// pairs, all ending together on the sparse snapshot that follows.
func TestContactTrackerSurvivesTableGrowth(t *testing.T) {
	const k = 80 // 3160 pairs, well past several grow thresholds
	dense := trace.Snapshot{T: 10}
	sparse := trace.Snapshot{T: 20}
	for i := 0; i < k; i++ {
		dense.Samples = append(dense.Samples,
			trace.Sample{ID: trace.AvatarID(i + 1), Pos: geom.V2(50+float64(i%9), 50+float64(i/9))})
		sparse.Samples = append(sparse.Samples,
			trace.Sample{ID: trace.AvatarID(i + 1), Pos: geom.V2(float64(250*(i%2)), float64(3*i))})
	}
	a, err := NewAnalyzer("grow", 10, Config{Ranges: []float64{80}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(dense); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(sparse); err != nil {
		t.Fatal(err)
	}
	an, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cs := an.Contacts[80]
	if cs.Pairs < k*(k-1)/2 {
		t.Errorf("pairs = %d, want at least %d", cs.Pairs, k*(k-1)/2)
	}
	// Every first-snapshot contact is left-censored; none may be lost
	// across table grows. Contacts formed on the sparse snapshot are
	// right-censored at finish.
	if got := cs.Censored + cs.CT.N(); got < k*(k-1)/2 {
		t.Errorf("closed+censored = %d, want at least %d", got, k*(k-1)/2)
	}
}

// TestTripCloseZeroAllocSteadyState pins the //slmob:hotpath contract on
// the session-closure path specifically: once the closed-session buffer
// and the per-avatar session states exist, a relogin cycle — close the
// old session, reopen in place — allocates nothing. The Observe-level
// pin never exercises closures at steady state (its population stays
// logged in), so this covers tripTracker.observe's gap branch and
// closeSession directly.
func TestTripCloseZeroAllocSteadyState(t *testing.T) {
	var closed []closedSession
	tt := newTripTracker(0.5, 100, &closed)
	pos := geom.V2(50, 50)
	// Warm-up: one avatar cycling through enough relogins to grow the
	// closed buffer past what the measured phase appends.
	tm := int64(0)
	for i := 0; i < 200; i++ {
		tm += 200 // every observation exceeds the gap: close + reopen
		tt.observe(1, pos, false, tm)
	}
	closed = closed[:0]
	avg := testing.AllocsPerRun(100, func() {
		tm += 200
		tt.observe(1, pos, false, tm)
	})
	if avg != 0 {
		t.Errorf("steady-state relogin cycle allocates %v per run, want 0", avg)
	}
	if len(closed) == 0 {
		t.Fatal("no sessions closed during measurement")
	}
}
