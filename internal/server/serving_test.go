package server

import (
	"math"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"slmob/internal/geom"
	"slmob/internal/slp"
	"slmob/internal/world"
)

// newBenchHost builds a landHost (no listener accept loop) around a
// stepped Dance Island sim for direct push-path exercise.
func newBenchHost(tb testing.TB, seed uint64) (*landHost, *sync.Mutex) {
	tb.Helper()
	var mu sync.Mutex
	var closed bool
	sim, err := world.NewSim(testScenario(seed, 86400))
	if err != nil {
		tb.Fatal(err)
	}
	h, err := newLandHostSim(&mu, &closed, sim, "127.0.0.1:0", 1, "")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.ln.Close() })
	for i := 0; i < 120; i++ {
		sim.Step()
	}
	return h, &mu
}

// sinkSession returns a session whose peer end is drained continuously,
// so enqueued frames never wedge the queue.
func sinkSession(tb testing.TB) *session {
	tb.Helper()
	c1, c2 := net.Pipe()
	tb.Cleanup(func() { c1.Close(); c2.Close() })
	sess := newSession(c1)
	go sess.writeLoop()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	tb.Cleanup(sess.close)
	return sess
}

// pinAllocs fails unless fn settles at exactly want allocations per call.
func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	fn() // warm pooled buffers and the tick's shared frames
	if got := testing.AllocsPerRun(200, fn); got != want {
		t.Errorf("%s: %v allocs/op, want %v", name, got, want)
	}
}

// TestPushPathAllocPins pins the serving path's per-push allocation
// budget, the regression the shared per-tick snapshot exists to prevent:
// within a tick, repeat pushes of the shared coarse and observer frames
// are allocation-free (the old path paid a full States scan plus a
// per-session encode on every push), and an AOI delta push in a static
// world costs only its per-session wire frame.
func TestPushPathAllocPins(t *testing.T) {
	h, mu := newBenchHost(t, 9)
	coarse := sinkSession(t)
	observer := sinkSession(t)
	observer.observer = true
	aoi := sinkSession(t)
	aoi.aoi = 96
	aoi.delta = true
	aoi.pos = geom.V(128, 128, 0)
	mu.Lock()
	defer mu.Unlock()
	for _, sess := range []*session{coarse, observer, aoi} {
		h.sessions[sess] = struct{}{}
	}

	pinAllocs(t, "coarse shared frame", 0, func() { h.pushMapLocked(coarse) })
	pinAllocs(t, "observer shared frame", 0, func() { h.pushMapLocked(observer) })

	// The AOI delta steady state (unchanged tick, empty diff) pays exactly
	// one frame encode (payload buffer, its growth, the framed copy) —
	// nothing proportional to land population.
	h.pushMapLocked(aoi) // keyframe
	pinAllocs(t, "aoi delta", 3, func() { h.pushMapLocked(aoi) })

	// Chat relay reuses cached positions and shares one frame across
	// hearers: one frame encode per message, no per-avatar position map
	// (the old path rebuilt one per message).
	coarse.pos = geom.V(120, 120, 0)
	msg := world.ChatMessage{From: coarse.avatarID + 1000, Pos: geom.V(128, 128, 0), Text: "hi"}
	pinAllocs(t, "chat relay", 3, func() { h.relayChat(msg) })
}

// TestAOIPushFiltersByRadius: an AOI session's push carries exactly the
// avatars within its radius (by ground-plane distance, quantised), not
// the whole land.
func TestAOIPushFiltersByRadius(t *testing.T) {
	h, mu := newBenchHost(t, 11)
	sess := sinkSession(t)
	sess.aoi = 48
	sess.pos = geom.V(128, 128, 0)

	mu.Lock()
	snap := h.ensureSnapLocked()
	want := map[int64]geom.Vec{}
	for _, st := range snap.states {
		if st.Pos.DistXY(sess.pos) <= sess.aoi {
			pos := st.Pos
			if st.Seated {
				pos = geom.Vec{}
			}
			want[int64(st.ID)] = slp.QuantizePos(pos)
		}
	}
	total := len(snap.states)
	h.pushFilteredLocked(sess, snap)
	got := append([]slp.MapEntry(nil), sess.curView...)
	mu.Unlock()

	if len(want) == 0 || len(want) == total {
		t.Fatalf("degenerate scene: %d of %d avatars in radius", len(want), total)
	}
	if len(got) != len(want) {
		t.Fatalf("filtered view has %d entries, want %d (of %d on land)", len(got), len(want), total)
	}
	for _, e := range got {
		p, ok := want[int64(e.ID)]
		if !ok {
			t.Errorf("avatar %d outside radius appeared in the view", e.ID)
		} else if e.Pos != p {
			t.Errorf("avatar %d at %v, want quantised %v", e.ID, e.Pos, p)
		}
	}
}

// TestDeltaSubscriptionMatchesPlain runs two live clients against one
// server on the same aligned cadence — one on plain coarse pushes, one
// on a whole-land delta subscription — and requires every shared
// snapshot time to materialise identical views: the MapDelta stream
// (keyframes included; the run crosses the keyframe cadence) reproduces
// exactly what an unfiltered subscriber sees.
func TestDeltaSubscriptionMatchesPlain(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(13, 300), 1000))
	plain, err := slp.Dial(srv.RegionAddr(0), "plain", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	delta, err := slp.Dial(srv.RegionAddr(0), "delta", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer delta.Close()
	if err := plain.Subscribe(5, true); err != nil {
		t.Fatal(err)
	}
	// Radius 0 keeps the whole land in view; only the encoding differs.
	if err := delta.SubscribeAOI(5, true, 0, true); err != nil {
		t.Fatal(err)
	}

	// The server ends at its duration and closes both sessions; the
	// buffered channels then drain to completion.
	collect := func(c *slp.Client) map[int64][]slp.MapEntry {
		out := map[int64][]slp.MapEntry{}
		for m := range c.Maps() {
			entries := append([]slp.MapEntry(nil), m.Entries...)
			sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
			out[m.SimTime] = entries
		}
		return out
	}
	pm := collect(plain)
	dm := collect(delta)

	if n := delta.DeltasApplied(); n < keyframeEvery+2 {
		t.Fatalf("delta client applied %d MapDelta frames, want enough to cross the keyframe cadence (%d)", n, keyframeEvery)
	}
	common := 0
	for tt, want := range pm {
		got, ok := dm[tt]
		if !ok {
			continue
		}
		common++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("views at t=%d differ:\n delta: %v\n plain: %v", tt, got, want)
		}
	}
	if common < 10 {
		t.Fatalf("only %d common snapshot times between the streams", common)
	}
}

// BenchmarkPushMapCoarse measures a tick's serving cost for n plain
// subscribers sharing the per-tick frame.
func BenchmarkPushMapCoarse(b *testing.B) {
	benchmarkPush(b, func(sess *session) {})
}

// BenchmarkPushMapAOIDelta measures a tick's serving cost for n AOI
// delta subscribers answered from the shared grid.
func BenchmarkPushMapAOIDelta(b *testing.B) {
	benchmarkPush(b, func(sess *session) {
		sess.aoi = 96
		sess.delta = true
		sess.pos = geom.V(128, 128, 0)
	})
}

func benchmarkPush(b *testing.B, setup func(*session)) {
	h, mu := newBenchHost(b, 9)
	const nSess = 64
	sessions := make([]*session, nSess)
	for i := range sessions {
		sessions[i] = sinkSession(b)
		setup(sessions[i])
	}
	mu.Lock()
	defer mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sim.Step() // advance the tick so each iteration rebuilds the snapshot
		for _, sess := range sessions {
			h.pushMapLocked(sess)
		}
	}
}

// TestSubscribeRadiusBounds: hostile AOI radii cannot stall the push
// path — non-finite radii are rejected outright, huge finite ones are
// clamped to the land diagonal before they ever reach the grid query,
// and ordinary radii are stored untouched.
func TestSubscribeRadiusBounds(t *testing.T) {
	h, mu := newBenchHost(t, 15)

	t.Run("infinite radius rejected", func(t *testing.T) {
		c1, c2 := net.Pipe()
		t.Cleanup(func() { c1.Close(); c2.Close() })
		sess := newSession(c1)
		t.Cleanup(sess.close)
		done := make(chan bool, 1)
		go func() { done <- h.handle(sess, slp.Subscribe{Tau: 5, Radius: math.Inf(1)}) }()
		msg, err := slp.ReadMessage(c2)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := msg.(slp.Error)
		if !ok || e.Code != slp.ErrBadRequest {
			t.Fatalf("reply = %#v, want bad-request error", msg)
		}
		if closed := <-done; closed {
			t.Error("rejected subscribe ended the session")
		}
		if sess.aoi != 0 {
			t.Errorf("aoi = %v after rejected subscribe, want 0", sess.aoi)
		}
	})

	t.Run("huge radius clamped", func(t *testing.T) {
		sess := sinkSession(t)
		if h.handle(sess, slp.Subscribe{Tau: 5, Radius: 1e9}) {
			t.Fatal("subscribe closed the session")
		}
		if want := h.maxAOIRadius(); sess.aoi != want {
			t.Errorf("aoi = %v, want clamped %v", sess.aoi, want)
		}
		// The clamped push must answer from the grid immediately;
		// unclamped, a 1e9 m radius walked ~4e15 cells under the lock.
		mu.Lock()
		h.pushMapLocked(sess)
		mu.Unlock()
	})

	t.Run("ordinary radius kept", func(t *testing.T) {
		sess := sinkSession(t)
		if h.handle(sess, slp.Subscribe{Tau: 5, Radius: 96}) {
			t.Fatal("subscribe closed the session")
		}
		if sess.aoi != 96 {
			t.Errorf("aoi = %v, want 96", sess.aoi)
		}
	})
}
