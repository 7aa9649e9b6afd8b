package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"slmob/internal/crawler"
	"slmob/internal/geom"
	"slmob/internal/slp"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Single-land serving: each test hosts one land as a 1×1 estate.

// testScenario is small and quick under a high warp.
func testScenario(seed uint64, duration int64) world.Scenario {
	scn := world.DanceIsland(seed)
	scn.Duration = duration
	return scn
}

func TestHandshakeAndPing(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(1, 86400), 500))
	c, err := slp.Dial(srv.RegionAddr(0), "tester", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := c.Welcome()
	if w.Land != "Dance Island" || w.Size != 256 || w.AvatarID == 0 {
		t.Errorf("welcome = %+v", w)
	}
	simT, err := c.Ping(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if simT < 0 {
		t.Errorf("sim time = %d", simT)
	}
}

func TestPasswordRequired(t *testing.T) {
	cfg := landEstate(testScenario(2, 86400), 100)
	cfg.Password = "secret"
	srv := startEstate(t, cfg)

	if _, err := slp.Dial(srv.RegionAddr(0), "x", "wrong", 5*time.Second); err == nil {
		t.Error("bad password accepted")
	}
	c, err := slp.Dial(srv.RegionAddr(0), "x", "secret", 5*time.Second)
	if err != nil {
		t.Fatalf("good password rejected: %v", err)
	}
	c.Close()
}

func TestMapPollReturnsAvatars(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(3, 86400), 500))
	c, err := slp.Dial(srv.RegionAddr(0), "tester", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RequestMap(); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-c.Maps():
		// Warmup population (34) plus the client's own avatar.
		if len(reply.Entries) < 10 {
			t.Errorf("map has %d entries, expected a populated land", len(reply.Entries))
		}
		self := false
		for _, e := range reply.Entries {
			if e.ID == 0 {
				t.Error("zero avatar id on map")
			}
			if uint64(e.ID) == c.Welcome().AvatarID {
				self = true
			}
		}
		if !self {
			t.Error("own avatar missing from map (crawler appears as an avatar)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no map reply")
	}
}

func TestSubscriptionDeliversPeriodicSnapshots(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(4, 86400), 1000))
	c, err := slp.Dial(srv.RegionAddr(0), "tester", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(10, false); err != nil {
		t.Fatal(err)
	}
	var times []int64
	deadline := time.After(10 * time.Second)
	for len(times) < 5 {
		select {
		case reply, ok := <-c.Maps():
			if !ok {
				t.Fatalf("connection died: %v", c.Err())
			}
			times = append(times, reply.SimTime)
		case <-deadline:
			t.Fatalf("only %d pushes", len(times))
		}
	}
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d < 10 {
			t.Errorf("push interval %d < tau", d)
		}
	}
}

func TestMoveAndChatAccepted(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(5, 86400), 500))
	c, err := slp.Dial(srv.RegionAddr(0), "tester", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Move(geom.V2(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Chat("hello"); err != nil {
		t.Fatal(err)
	}
	// The session must still be healthy afterwards.
	if _, err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPolicyPrivateLandRejects(t *testing.T) {
	// Dance Island is private: sensor deployment must fail, as in §2.
	srv := startEstate(t, landEstate(testScenario(6, 86400), 500))
	c, err := slp.Dial(srv.RegionAddr(0), "builder", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CreateObject(slp.ObjectCreate{
		Kind: slp.ObjectSensor, Pos: geom.V2(128, 128), Range: 96, Period: 10,
		Collector: "http://127.0.0.1:1/flush",
	}, 5*time.Second)
	if err == nil {
		t.Fatal("sensor deployed on private land")
	}
}

func TestObjectPolicyPublicLandExpiry(t *testing.T) {
	scn := world.ApfelLand(7) // public, ObjectLifetime 7200
	scn.Duration = 86400
	srv := startEstate(t, landEstate(scn, 500))
	c, err := slp.Dial(srv.RegionAddr(0), "builder", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.CreateObject(slp.ObjectCreate{
		Kind: slp.ObjectSensor, Pos: geom.V2(128, 128), Range: 200, Period: 10,
		Collector: "http://127.0.0.1:1/flush",
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObjectID == 0 {
		t.Error("zero object id")
	}
	if rep.ExpiresAt == 0 {
		t.Error("public-land object has no expiry")
	}
	srv.mu.Lock()
	active := srv.hosts[0].sensors.ActiveObjects()
	srv.mu.Unlock()
	if active != 1 {
		t.Errorf("active objects = %d", active)
	}
}

func TestCrawlerEndToEnd(t *testing.T) {
	// Full measurement path: server under heavy time warp, crawler
	// collecting a 30-minute trace over TCP.
	scn := testScenario(8, 86400)
	srv := startEstate(t, landEstate(scn, 2000))
	cr, err := crawler.New(crawler.Config{
		Addr: srv.RegionAddr(0), Name: "paper-crawler", Tau: 10,
		Duration: 1800, Mimic: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr, err := trace.Collect(ctx, cr.Source(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) < 170 {
		t.Errorf("snapshots = %d, want ~180", len(tr.Snapshots))
	}
	sum := tr.Summarize()
	if sum.Unique < 10 {
		t.Errorf("unique users = %d, expected a populated land", sum.Unique)
	}
	// The crawler must have filtered itself out.
	for _, snap := range tr.Snapshots {
		for _, s := range snap.Samples {
			if s.ID == cr.SelfID() {
				t.Fatal("crawler observed itself")
			}
		}
	}
	if tr.Meta["monitor"] != "crawler" || tr.Meta["mimic"] != "true" {
		t.Errorf("meta = %v", tr.Meta)
	}
}

func TestLandFullRejectsLogin(t *testing.T) {
	scn := testScenario(10, 86400)
	scn.Land.MaxAvatars = scn.Warmup + 1 // room for exactly one client
	srv := startEstate(t, landEstate(scn, 100))
	c1, err := slp.Dial(srv.RegionAddr(0), "one", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := slp.Dial(srv.RegionAddr(0), "two", "", 5*time.Second); err == nil {
		t.Error("second login accepted on a full land")
	}
}

// TestChatRelayAtMaxLength: the longest admissible chat text relays
// intact. MaxChatText is enforced by the codec on decode, so the
// ChatEvent re-encode in relayChat (text plus From/Pos framing) can
// never exceed MaxPayload and silently drop the event — this pins the
// boundary case.
func TestChatRelayAtMaxLength(t *testing.T) {
	srv := startEstate(t, landEstate(testScenario(23, 86400), 500))
	hearer, err := slp.Dial(srv.RegionAddr(0), "hearer", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer hearer.Close()
	if err := hearer.Move(geom.V2(128, 128)); err != nil {
		t.Fatal(err)
	}
	// Round-trip a ping so the move is applied before the chat fires.
	if _, err := hearer.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	speaker, err := slp.Dial(srv.RegionAddr(0), "speaker", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()
	if err := speaker.Move(geom.V2(129, 128)); err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("a", slp.MaxChatText)
	if err := speaker.Chat(text); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-hearer.Chats():
			if !ok {
				t.Fatalf("hearer dropped: %v", hearer.Err())
			}
			if ev.Text == text {
				return // relayed intact
			}
			// Simulated avatars chat too (empty text); keep listening.
		case <-deadline:
			t.Fatal("max-length chat never relayed")
		}
	}
}
