package server

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"slmob/internal/geom"
	"slmob/internal/slp"
	"slmob/internal/world"
)

// testEstate is a short 1×3 paper estate with lively migration.
func testEstate(seed uint64, duration int64) world.EstateConfig {
	est := world.PaperEstate(seed)
	est.Duration = duration
	est.CrossProb = 0.004
	est.TeleportProb = 0.001
	return est
}

// landEstate serves one land as a 1×1 estate at the given warp.
func landEstate(scn world.Scenario, warp float64) EstateConfig {
	return EstateConfig{Estate: world.SingleRegionEstate(scn), Warp: warp}
}

// newEstate builds an estate server for a test; TickEvery defaults to
// 1 ms. Its cleanup runs after the test has closed its clients and Run
// has returned: it closes the analytics service and then requires every
// goroutine the server started to be gone.
func newEstate(t *testing.T, cfg EstateConfig) *EstateServer {
	t.Helper()
	if cfg.TickEvery == 0 {
		cfg.TickEvery = time.Millisecond
	}
	base := runtime.NumGoroutine()
	srv, err := NewEstate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.CloseAnalytics()
		awaitGoroutines(t, base, 5*time.Second)
	})
	return srv
}

// startEstate builds an estate server with newEstate and runs it until
// the test ends.
func startEstate(t *testing.T, cfg EstateConfig) *EstateServer {
	t.Helper()
	srv := newEstate(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("estate server did not stop")
		}
	})
	return srv
}

// awaitGoroutines waits for the goroutine count to fall back to base,
// failing the test if it has not within the deadline — the check that a
// server's Run leaves nothing running behind it.
func awaitGoroutines(t *testing.T, base int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for runtime.NumGoroutine() > base {
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running %v after Run returned, want %d:\n%s",
				runtime.NumGoroutine(), deadline, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEstateHandoffsInProcess runs a full short estate service and
// checks that avatars actually moved between its regions; newEstate's
// cleanup checks that Run returned with every goroutine it started gone.
func TestEstateHandoffsInProcess(t *testing.T) {
	srv := newEstate(t, EstateConfig{Estate: testEstate(3, 900), Warp: 4000})
	err := srv.Run(context.Background())
	if !errors.Is(err, ErrDurationReached) {
		t.Fatalf("run = %v, want duration reached", err)
	}
	if srv.Crossings() == 0 {
		t.Error("no walking handoffs between regions")
	}
	if srv.Teleports() == 0 {
		t.Error("no teleports between regions")
	}
}

// TestPingSkipsTickLock: a ping is answered from the published clock, so
// it never waits on the estate lock that every tick takes — here held by
// the test for the whole exchange. The Pong carries the clock of the
// last completed step, which with the lock held is the estate's clock.
func TestPingSkipsTickLock(t *testing.T) {
	srv := startEstate(t, EstateConfig{Estate: testEstate(5, 86400), Warp: 500})
	c, err := slp.Dial(srv.RegionAddr(1), "pinger", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	want := srv.est.Time()
	got, err := c.Ping(2 * time.Second)
	if err != nil {
		t.Fatalf("ping with the estate lock held: %v", err)
	}
	if got != want {
		t.Errorf("pong sim time = %d, want %d", got, want)
	}
	if now := srv.SimTime(); now != want {
		t.Errorf("SimTime = %d, want %d", now, want)
	}
}

// TestEstateObserverSession: an observer logs into a region of a served
// estate, holds no avatar, and receives full-resolution map replies with
// the seated flag, while Move is refused.
func TestEstateObserverSession(t *testing.T) {
	srv := startEstate(t, EstateConfig{Estate: testEstate(4, 86400), Warp: 500})
	c, err := slp.DialObserver(srv.RegionAddr(1), "monitor", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Welcome().AvatarID != 0 {
		t.Errorf("observer got avatar %d", c.Welcome().AvatarID)
	}
	if err := c.RequestMap(); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-c.FullMaps():
		if len(reply.Entries) < 10 {
			t.Errorf("full map has %d entries, expected a populated region", len(reply.Entries))
		}
		for _, ent := range reply.Entries {
			if ent.Seated && !ent.Pos.IsZero() {
				// Full entries carry the true position even while seated —
				// that is the point of the measurement-grade feed.
				return
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no full map reply")
	}
	// Observers have no avatar to move: the server answers with a typed
	// error, which the client surfaces as a dead connection.
	if err := c.Move(geom.V2(1, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("observer move was not refused")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMalformedLoginGetsTypedError: garbage on a fresh connection must
// be answered with a protocol-level Error reply, not a silent close.
func TestMalformedLoginGetsTypedError(t *testing.T) {
	scn := world.DanceIsland(9)
	scn.Duration = 86400
	srv := startEstate(t, landEstate(scn, 100))

	// A well-framed payload that decodes to no known message.
	if e := rawLoginReply(t, srv.RegionAddr(0), []byte{0xEE, 0xDE, 0xAD, 0xBE, 0xEF}); e.Code != slp.ErrMalformed {
		t.Errorf("error code = %d, want ErrMalformed", e.Code)
	}
}

// rawLoginReply opens a connection to addr, sends payload as its first
// frame, and returns the server's Error reply.
func rawLoginReply(t *testing.T, addr string, payload []byte) slp.Error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(payload)))
	if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := slp.ReadMessage(conn)
	if err != nil {
		t.Fatalf("no protocol reply to the first frame: %v", err)
	}
	e, ok := msg.(slp.Error)
	if !ok {
		t.Fatalf("reply = %T, want slp.Error", msg)
	}
	return e
}

// TestRetiredPeerHelloIsMalformed: the inter-server handshake is gone
// and its message code reserved, so a region server answers a frame in
// the old PeerHello layout as an undecodable one.
func TestRetiredPeerHelloIsMalformed(t *testing.T) {
	srv := startEstate(t, EstateConfig{Estate: testEstate(6, 86400), Warp: 100})
	// Code 16, protocol version, region 1, password "pw".
	payload := []byte{16, slp.Version, 0, 0, 0, 1, 0, 2, 'p', 'w'}
	if e := rawLoginReply(t, srv.RegionAddr(0), payload); e.Code != slp.ErrMalformed {
		t.Errorf("error code = %d, want ErrMalformed", e.Code)
	}
}

// TestDirectoryEndpoint: grid discovery, typed refusal of non-directory
// traffic, and idempotent clock start.
func TestDirectoryEndpoint(t *testing.T) {
	srv := startEstate(t, EstateConfig{
		Estate: testEstate(8, 86400), Warp: 200, Hold: true,
	})
	dir, err := slp.FetchDirectory(srv.DirectoryAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Estate == "" || len(dir.Regions) != 3 || !dir.Held {
		t.Fatalf("directory = %+v", dir)
	}
	if dir.Duration != 86400 || dir.Warp != 200 {
		t.Errorf("duration/warp = %d/%v", dir.Duration, dir.Warp)
	}
	for i, r := range dir.Regions {
		if r.Addr != srv.RegionAddr(i) {
			t.Errorf("region %d addr = %q, want %q", i, r.Addr, srv.RegionAddr(i))
		}
		wantOrigin := geom.V2(float64(i)*256, 0)
		if r.Origin != wantOrigin || r.Size != 256 {
			t.Errorf("region %d placement = %+v/%v", i, r.Origin, r.Size)
		}
	}

	// The regions themselves still serve logins while the clock is held.
	c, err := slp.Dial(srv.RegionAddr(2), "tester", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	if _, err := slp.StartEstateClock(srv.DirectoryAddr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := slp.StartEstateClock(srv.DirectoryAddr(), 5*time.Second); err != nil {
		t.Fatalf("clock start is not idempotent: %v", err)
	}
	dir, err = slp.FetchDirectory(srv.DirectoryAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Held {
		t.Error("directory still reports a held clock after start")
	}
}

// TestEstateTickStats: a finished run reports its tick-loop timing.
func TestEstateTickStats(t *testing.T) {
	srv := newEstate(t, EstateConfig{Estate: testEstate(7, 600), Warp: 4000})
	if err := srv.Run(context.Background()); !errors.Is(err, ErrDurationReached) {
		t.Fatalf("run = %v", err)
	}
	st := srv.TickStats()
	if st.Intervals == 0 || st.Steps == 0 {
		t.Fatalf("tick stats empty: %+v", st)
	}
	if st.Steps < st.Intervals {
		t.Errorf("steps %d < intervals %d at warp 4000", st.Steps, st.Intervals)
	}
	if st.Max == 0 || st.Total < st.Max {
		t.Errorf("tick durations inconsistent: total %v max %v", st.Total, st.Max)
	}
	if st.Budget != time.Millisecond {
		t.Errorf("budget = %v, want the configured TickEvery", st.Budget)
	}
}

// TestDirectoryConnHeldOpenDoesNotStallShutdown is the regression gate
// for directory-connection tracking: an idle monitor connection sits in
// a 30 s read deadline, and Run used to be unable to return until it
// expired because the serving goroutine was joined on s.wg with nothing
// closing the socket. Shutdown must close tracked directory
// connections and return promptly.
func TestDirectoryConnHeldOpenDoesNotStallShutdown(t *testing.T) {
	srv := newEstate(t, EstateConfig{Estate: testEstate(11, 86400), Warp: 100})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	// A directory client that asks once and then holds the connection
	// open, idle, like a monitor between polls.
	conn, err := net.Dial("tcp", srv.DirectoryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := slp.WriteMessage(conn, slp.DirectoryRequest{}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := slp.ReadMessage(conn); err != nil {
		t.Fatalf("directory reply: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return with a directory connection held open")
	}
}
