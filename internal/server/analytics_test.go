package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"slmob/internal/core"
	"slmob/internal/slp"
	"slmob/internal/world"
)

// TestSlowSubscriberDoesNotStallClock wedges a subscribed observer (it
// logs in, subscribes at tau=1, and never reads again) and checks the
// sim clock keeps running at roughly the configured warp: map pushes are
// snapshotted under the lock but written on the session's writer
// goroutine, so a full kernel buffer costs the clock nothing and the
// wedged session is dropped once its bounded queue fills.
func TestSlowSubscriberDoesNotStallClock(t *testing.T) {
	srv, cancel := startServer(t, testScenario(31, 86400), 5000)
	defer cancel()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := slp.WriteMessage(conn, slp.Hello{Version: slp.Version, Name: "wedge", Observer: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := slp.ReadMessage(conn); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := slp.WriteMessage(conn, slp.Subscribe{Tau: 1}); err != nil {
		t.Fatal(err)
	}
	// From here on the client never drains its socket.

	sim0 := srv.SimTime()
	time.Sleep(2 * time.Second)
	advance := srv.SimTime() - sim0
	// Nominal advance at warp 5000 is ~10000 sim seconds; a clock that
	// blocked on the wedged session's socket (the old write-under-lock
	// path stalled up to the 5 s write deadline per push) manages only a
	// few hundred. 1000 discriminates with a wide margin for slow CI.
	if advance < 1000 {
		t.Errorf("clock advanced %d sim seconds in 2 s wall with a wedged subscriber, want >= 1000", advance)
	}

	// The wedged session must have been dropped, not left queueing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.host.sessions)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged subscriber still has a session after 10 s (%d live)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayChatClosesWedgedSession checks the chat relay path: a session
// whose push queue is already full cannot absorb a chat event, so the
// relay closes it instead of silently discarding the write error (the
// old behaviour let a dead consumer linger until its next map push).
func TestRelayChatClosesWedgedSession(t *testing.T) {
	var mu sync.Mutex
	var closed bool
	sim, err := world.NewSim(testScenario(9, 86400))
	if err != nil {
		t.Fatal(err)
	}
	h, err := newLandHostSim(&mu, &closed, sim, "127.0.0.1:0", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.ln.Close()

	c1, c2 := net.Pipe()
	defer c2.Close()
	sess := newSession(c1)
	// Fill the queue to its cap; no writer goroutine drains it, like a
	// consumer whose writer is stuck on a dead socket.
	sess.qmax = 1
	wedge, err := slp.EncodeFrame(slp.Pong{})
	if err != nil {
		t.Fatal(err)
	}
	sess.backlog = append(sess.backlog, wedge)

	spawn := sim.Scenario().Land.Spawns[0]
	mu.Lock()
	id, err := sim.AddExternal(spawn)
	if err != nil {
		mu.Unlock()
		t.Fatal(err)
	}
	sess.avatarID = id
	sess.pos = spawn
	h.sessions[sess] = struct{}{}
	h.relayChat(world.ChatMessage{From: id + 1, Pos: spawn, Text: "hello"})
	mu.Unlock()

	select {
	case <-sess.quit:
	default:
		t.Fatal("wedged session not closed when the chat enqueue failed")
	}
	_ = c2.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Error("peer side still readable; connection should be closed")
	}
}

// TestSingleLandAnalyticsQuery runs a single-land server with the
// analytics endpoint enabled through a full (warped) measurement and
// exercises the query lifecycle: empty reply before the first window,
// sealed cumulative/window/stats after the run, with region 0 carrying
// the full per-land analysis (network metrics included) and the global
// view the estate-style merge.
func TestSingleLandAnalyticsQuery(t *testing.T) {
	scn := testScenario(5, 1800)
	srv, err := New(Config{
		Addr:      "127.0.0.1:0",
		Scenario:  scn,
		Warp:      5000,
		TickEvery: time.Millisecond,
		Analytics: AnalyticsConfig{Addr: "127.0.0.1:0", Window: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.CloseAnalytics)

	qc, err := slp.DialQuery(srv.QueryAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	// Before the clock runs nothing is sealed: an empty reply, not an
	// error.
	res, err := qc.Cumulative(-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blob != nil || res.Windows != 0 || res.Sealed {
		t.Fatalf("pre-run cumulative = %+v, want empty unsealed reply", res)
	}

	if err := srv.Run(context.Background()); err == nil {
		t.Fatal("run ended without a duration-reached reason")
	}
	if err := srv.AnalyticsErr(); err != nil {
		t.Fatalf("analytics engine failed: %v", err)
	}

	// Sealed cumulative, global view: estate-style (no per-land network
	// metrics), full duration covered.
	res, err = qc.Cumulative(-1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sealed {
		t.Error("post-run cumulative not sealed")
	}
	// Samples run t=10..1800; the final one (t=1800) opens window 3, so
	// four windows seal: 0..2 at rollover, 3 at finish.
	if res.FirstWindow != 0 || res.Windows != 4 {
		t.Errorf("sealed window range = [%d, +%d), want [0, +4)", res.FirstWindow, res.Windows)
	}
	global, err := core.DecodeAnalysis(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if global.Summary.Snapshots == 0 || global.Summary.Unique == 0 {
		t.Errorf("sealed global summary is empty: %+v", global.Summary)
	}
	if global.End != scn.Duration {
		t.Errorf("sealed global End = %d, want %d", global.End, scn.Duration)
	}
	if len(global.Nets) != 0 {
		t.Error("estate-global analysis has network metrics; want none")
	}

	// Region 0 is the land itself: the full per-land analysis.
	res, err = qc.Cumulative(0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := core.DecodeAnalysis(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Nets) == 0 {
		t.Error("region 0 analysis lacks network metrics")
	}
	if region.Summary.Snapshots != global.Summary.Snapshots {
		t.Errorf("region snapshots = %d, global = %d; single land should agree",
			region.Summary.Snapshots, global.Summary.Snapshots)
	}

	// A sealed window is queryable by index; out-of-range indices are
	// typed errors.
	wres, err := qc.WindowAt(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	win, err := core.DecodeAnalysis(wres.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if win.Start < 600 || win.End >= 1200 {
		t.Errorf("window 1 covers [%d, %d], want within [600, 1200)", win.Start, win.End)
	}
	if _, err := qc.WindowAt(-1, 99); err == nil {
		t.Error("window 99 query succeeded, want out-of-range error")
	}
	if _, err := qc.Cumulative(5); err == nil {
		t.Error("region 5 query succeeded, want bad-region error")
	}

	st, err := qc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.Regions != 1 || st.Windows != 4 {
		t.Errorf("stats = %+v, want sealed, 1 region, 4 windows", st)
	}
	if st.Queries == 0 {
		t.Error("stats report zero queries served")
	}
	if st.WsSnapshots == 0 {
		t.Error("stats report zero workspace snapshots; engine statistics not wired")
	}
}
