// Package load is the serving-path load harness: it floods a live
// estate with concurrent slp clients — observer monitors subscribed to
// map pushes, optional in-world avatars, and analytics readers polling
// the query endpoint — and reports connection counts, reply latency
// quantiles, and server faults. The CI smoke gate runs it against the
// city-scale preset and requires every connection to survive: under the
// drop-slow-consumer policy a healthy client must never be
// disconnected, no matter how many of them there are.
package load

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slmob"
	"slmob/internal/slp"
)

// Config configures one load run.
type Config struct {
	// Directory aims the harness at an already-running estate's
	// directory endpoint. Empty self-hosts a preset estate (held clock,
	// released once every client is connected).
	Directory string
	// Preset names the self-hosted estate: "paper" (1×3), "mainland"
	// (4×4), or "city" (8×8). Default "paper".
	Preset string
	// Seed seeds the self-hosted estate (default 1).
	Seed uint64
	// SimDuration overrides the preset's simulated duration (seconds).
	SimDuration int64
	// Warp is the self-hosted clock rate (default 600).
	Warp float64
	// Window is the self-hosted analysis window (default 600).
	Window int64
	// Observers, Avatars, AOIAvatars, and Readers size the client mix:
	// observer monitors subscribe to full-resolution map pushes, avatars
	// log in as in-world clients on whole-land coarse pushes, AOI avatars
	// subscribe with an area-of-interest radius (and optionally delta
	// encoding), readers poll the analytics query endpoint.
	Observers  int
	Avatars    int
	AOIAvatars int
	Readers    int
	// AOIRadius is the AOI avatars' subscription radius in metres
	// (default 96 — the widest sensor/contact range the paper studies).
	AOIRadius float64
	// AOIDelta opts the AOI avatars into MapDelta-encoded pushes.
	AOIDelta bool
	// Tau is the observers' subscription period in sim seconds (default:
	// the paper's 10 s).
	Tau int64
	// Password is the estate's login password.
	Password string
	// RunFor bounds the load phase in wall time (default 10 s); the run
	// also ends when a self-hosted estate reaches its duration.
	RunFor time.Duration
	// PollEvery is each reader's query period (default 50 ms).
	PollEvery time.Duration
	// TickEvery is the self-hosted estate's wall-clock tick interval —
	// and therefore the per-interval budget that TickOverBudget counts
	// against (default 1 ms, the harness's low-latency pacing).
	TickEvery time.Duration
	// DialTimeout bounds every dial and query exchange (default 10 s).
	DialTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = "paper"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warp <= 0 {
		c.Warp = 600
	}
	if c.Window <= 0 {
		c.Window = 600
	}
	if c.Tau <= 0 {
		c.Tau = slmob.PaperTau
	}
	if c.AOIRadius <= 0 {
		c.AOIRadius = 96
	}
	if c.RunFor <= 0 {
		c.RunFor = 10 * time.Second
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 50 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.TickEvery <= 0 {
		c.TickEvery = time.Millisecond
	}
	return c
}

// Quantiles summarise a latency sample in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Report is the run's outcome, JSON-ready for the CI gate.
type Report struct {
	Estate  string `json:"estate"`
	Regions int    `json:"regions"`

	Observers  int `json:"observers"`
	Avatars    int `json:"avatars"`
	AOIAvatars int `json:"aoi_avatars"`
	Readers    int `json:"readers"`

	// Connected counts clients that completed their handshake;
	// ConnectFailures those that never got in.
	Connected       int `json:"connected"`
	ConnectFailures int `json:"connect_failures"`

	Cores        int     `json:"cores"`
	ConnsPerCore float64 `json:"conns_per_core"`

	// Pushes counts map-push frames received by observer and avatar
	// sessions, measured at the client wire layer — the same layer as
	// PushBytesTotal, so BytesPerPush stays consistent even when a
	// lagging consumer drops materialised snapshots. Replies counts the
	// analytics replies received by readers.
	Pushes  uint64 `json:"pushes"`
	Replies uint64 `json:"replies"`

	// PushBytesTotal sums the wire bytes of the map pushes themselves
	// (framing included; chat and control traffic excluded);
	// BytesPerPush divides it by Pushes. Mix breaks both down by client
	// kind — the number the AOI bandwidth gate reads. BytesTotal is all
	// inbound bytes across every push session, handshake and chat
	// included, for the whole-connection view.
	PushBytesTotal uint64               `json:"push_bytes_total"`
	BytesPerPush   float64              `json:"bytes_per_push"`
	BytesTotal     uint64               `json:"bytes_total"`
	Mix            map[string]*MixStats `json:"mix,omitempty"`

	// LatencyMs summarises reader query round-trips.
	LatencyMs Quantiles `json:"latency_ms"`

	// ServerFaults counts healthy clients the server failed mid-run —
	// the number the CI gate requires to be zero. Policy drops of
	// wedged clients are not faults (and no harness client wedges).
	ServerFaults int            `json:"server_faults"`
	Errors       map[string]int `json:"errors,omitempty"`

	// Service-side counters from the analytics endpoint's final stats.
	ServiceQueries uint64 `json:"service_queries"`
	ServiceDropped uint64 `json:"service_dropped"`
	FinalWindows   int64  `json:"final_windows"`
	FinalSealed    bool   `json:"final_sealed"`
	// FinalDigest is the cumulative analysis blob digest at run end —
	// the value the parity gate compares against an offline replay.
	FinalDigest string `json:"final_digest,omitempty"`

	// Tick-loop timing from a self-hosted estate's serving loop: ticker
	// intervals fired, simulation steps run, mean and worst-case wall
	// time per interval, the per-interval budget, and how many intervals
	// overran it — TickOverBudget is the number the tick-pace smoke gate
	// requires to stay zero (the warped clock never falling behind real
	// time).
	TickIntervals  int64   `json:"tick_intervals,omitempty"`
	TickSteps      int64   `json:"tick_steps,omitempty"`
	TickMeanMs     float64 `json:"tick_mean_ms,omitempty"`
	TickMaxMs      float64 `json:"tick_max_ms,omitempty"`
	TickBudgetMs   float64 `json:"tick_budget_ms,omitempty"`
	TickOverBudget int64   `json:"tick_over_budget"`

	WallSeconds float64 `json:"wall_seconds"`
}

// MixStats breaks the push-session numbers down by client kind
// ("observer", "avatar", "aoi-avatar"). Pushes and Bytes are both
// counted at the client wire layer — push frames only, framing
// included — so BytesPerPush compares the push encodings themselves,
// undiluted by chat or control traffic and unskewed by consumer lag.
type MixStats struct {
	Conns        int     `json:"conns"`
	Pushes       uint64  `json:"pushes"`
	Bytes        uint64  `json:"bytes"`
	BytesPerPush float64 `json:"bytes_per_push"`
}

// Client-kind labels used in Report.Mix and error keys.
const (
	KindObserver  = "observer"
	KindAvatar    = "avatar"
	KindAOIAvatar = "aoi-avatar"
)

func presetEstate(name string, seed uint64) (slmob.Estate, error) {
	switch name {
	case "paper":
		return slmob.PaperEstate(seed), nil
	case "mainland":
		return slmob.MainlandEstate(seed), nil
	case "city":
		return slmob.CityEstate(seed), nil
	default:
		return slmob.Estate{}, fmt.Errorf("load: unknown estate preset %q (want paper, mainland, or city)", name)
	}
}

// Run executes one load run: connect every client, release the clock,
// sustain the mix for the load phase, and report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	wallStart := time.Now()
	rep := &Report{
		Observers:  cfg.Observers,
		Avatars:    cfg.Avatars,
		AOIAvatars: cfg.AOIAvatars,
		Readers:    cfg.Readers,
		Cores:      runtime.NumCPU(),
		Errors:     map[string]int{},
	}

	dirAddr := cfg.Directory
	var svc *slmob.EstateService
	if dirAddr == "" {
		est, err := presetEstate(cfg.Preset, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if cfg.SimDuration > 0 {
			est.Duration = cfg.SimDuration
		}
		svc, err = slmob.ServeEstate(ctx, est,
			slmob.WithWarp(cfg.Warp), slmob.WithTickEvery(cfg.TickEvery),
			slmob.WithWindow(cfg.Window), slmob.WithQueryAddr("127.0.0.1:0"),
			slmob.WithHeldClock(), slmob.WithServePassword(cfg.Password))
		if err != nil {
			return nil, err
		}
		defer svc.Stop()
		dirAddr = svc.DirectoryAddr()
	}
	dir, err := slp.FetchDirectory(dirAddr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	rep.Estate, rep.Regions = dir.Estate, len(dir.Regions)
	if cfg.Readers > 0 && dir.QueryAddr == "" {
		return nil, errors.New("load: readers requested but the estate serves no analytics query endpoint")
	}

	var (
		connected atomic.Int64
		connFail  atomic.Int64
		replies   atomic.Uint64
		faults    atomic.Int64
		stopping  atomic.Bool

		mu       sync.Mutex
		lats     []float64
		loadWg   sync.WaitGroup // every consumer/reader goroutine
		dialWg   sync.WaitGroup // completes when every client dialled
		dialGate = make(chan struct{}, 128)
	)
	// Per-kind counters; push counts and bandwidth are attributed after
	// the load phase from each session's wire-layer PushesRead /
	// PushBytesRead (map pushes) and BytesRead (whole connection), so
	// numerator and denominator of bytes-per-push agree.
	type kindCounters struct {
		conns  atomic.Int64
		pushes atomic.Uint64
		bytes  atomic.Uint64
	}
	kinds := map[string]*kindCounters{
		KindObserver: {}, KindAvatar: {}, KindAOIAvatar: {},
	}
	type loadClient struct {
		c    *slp.Client
		kind string
	}
	var clients []loadClient
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()

	// done fires when a self-hosted estate finishes its simulated
	// duration — the server then closes every session, which is a clean
	// teardown, not a fault.
	var done <-chan struct{}
	if svc != nil {
		done = svc.Done()
	}

	fault := func(kind string) {
		if stopping.Load() {
			return
		}
		faults.Add(1)
		mu.Lock()
		rep.Errors[kind]++
		mu.Unlock()
	}
	dialFailed := func(kind string) {
		connFail.Add(1)
		mu.Lock()
		rep.Errors[kind]++
		mu.Unlock()
	}

	// dropped classifies a session's channels closing: a drop while the
	// load phase is live is a server fault; one racing the stop signal
	// or the estate's own clean end (sessions close a beat before Done
	// fires) is not. The grace window absorbs that teardown race.
	dropped := func(kind string) {
		select {
		case <-loadCtx.Done():
		case <-done:
		case <-time.After(2 * time.Second):
			fault(kind + "-dropped")
		}
	}

	// consume drains one session's push channels until the load phase
	// ends; pushes are counted in the client's read loop, not here, so
	// a consumer that momentarily lags never skews the push stats. A
	// channel closing early means the server failed a healthy,
	// promptly-draining client: a fault.
	consume := func(c *slp.Client, kind string) {
		defer loadWg.Done()
		for {
			select {
			case <-loadCtx.Done():
				return
			case _, ok := <-c.FullMaps():
				if !ok {
					dropped(kind)
					return
				}
			case _, ok := <-c.Maps():
				if !ok {
					dropped(kind)
					return
				}
			case _, ok := <-c.Chats():
				if !ok {
					dropped(kind)
					return
				}
			}
		}
	}

	dialSession := func(i int, kind string) {
		defer dialWg.Done()
		dialGate <- struct{}{}
		addr := dir.Regions[i%len(dir.Regions)].Addr
		name := fmt.Sprintf("load-%d", i)
		var c *slp.Client
		var err error
		if kind == KindObserver {
			c, err = slp.DialObserver(addr, name, cfg.Password, cfg.DialTimeout)
		} else {
			c, err = slp.Dial(addr, name, cfg.Password, cfg.DialTimeout)
		}
		<-dialGate
		if err != nil {
			dialFailed(kind + "-dial")
			return
		}
		if kind == KindAOIAvatar {
			err = c.SubscribeAOI(cfg.Tau, true, cfg.AOIRadius, cfg.AOIDelta)
		} else {
			err = c.Subscribe(cfg.Tau, true)
		}
		if err != nil {
			c.Close()
			dialFailed(kind + "-subscribe")
			return
		}
		connected.Add(1)
		kinds[kind].conns.Add(1)
		mu.Lock()
		clients = append(clients, loadClient{c: c, kind: kind})
		mu.Unlock()
		loadWg.Add(1)
		go consume(c, kind)
	}

	// readerLoop polls the analytics endpoint, rotating query targets
	// and timing each round-trip.
	readerLoop := func(r int, ready *sync.WaitGroup) {
		defer loadWg.Done()
		qc, err := slp.DialQuery(dir.QueryAddr, cfg.DialTimeout)
		if err != nil {
			ready.Done()
			dialFailed("reader-dial")
			return
		}
		defer qc.Close()
		connected.Add(1)
		ready.Done()
		var local []float64
		defer func() {
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
		tick := time.NewTicker(cfg.PollEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-loadCtx.Done():
				return
			case <-tick.C:
			}
			t0 := time.Now()
			switch n % 3 {
			case 0:
				_, err = qc.Cumulative(-1)
			case 1:
				_, err = qc.Stats()
			case 2:
				_, err = qc.WindowAt(-1, -1)
			}
			if err != nil {
				fault("reader-query")
				return
			}
			local = append(local, float64(time.Since(t0).Microseconds())/1000.0)
			replies.Add(1)
		}
	}

	// Connect phase: every client in, then release the clock.
	for i := 0; i < cfg.Observers; i++ {
		dialWg.Add(1)
		go dialSession(i, KindObserver)
	}
	for i := 0; i < cfg.Avatars; i++ {
		dialWg.Add(1)
		go dialSession(cfg.Observers+i, KindAvatar)
	}
	for i := 0; i < cfg.AOIAvatars; i++ {
		dialWg.Add(1)
		go dialSession(cfg.Observers+cfg.Avatars+i, KindAOIAvatar)
	}
	var readersReady sync.WaitGroup
	for r := 0; r < cfg.Readers; r++ {
		readersReady.Add(1)
		loadWg.Add(1)
		go readerLoop(r, &readersReady)
	}
	dialWg.Wait()
	readersReady.Wait()

	if dir.Held {
		if svc != nil {
			svc.StartClock()
		} else if _, err := slp.StartEstateClock(dirAddr, cfg.DialTimeout); err != nil {
			return nil, fmt.Errorf("load: clock start: %w", err)
		}
	}

	// Load phase.
	select {
	case <-time.After(cfg.RunFor):
	case <-done:
	case <-ctx.Done():
	}
	stopping.Store(true)
	stopLoad()
	mu.Lock()
	for _, lc := range clients {
		lc.c.Close()
	}
	mu.Unlock()
	loadWg.Wait()
	mu.Lock()
	for _, lc := range clients {
		kc := kinds[lc.kind]
		kc.pushes.Add(lc.c.PushesRead())
		kc.bytes.Add(lc.c.PushBytesRead())
		rep.BytesTotal += lc.c.BytesRead()
	}
	mu.Unlock()

	// Final service state, fetched fresh: counters, seal state, and the
	// cumulative digest the parity gate compares offline.
	if dir.QueryAddr != "" {
		if qc, err := slp.DialQuery(dir.QueryAddr, cfg.DialTimeout); err == nil {
			if st, err := qc.Stats(); err == nil {
				rep.ServiceQueries = st.Queries
				rep.ServiceDropped = st.Dropped
				rep.FinalWindows = st.Windows
				rep.FinalSealed = st.Sealed
			}
			qc.Close()
		}
		if la, err := slmob.QueryLive(dir.QueryAddr); err == nil && la.Analysis != nil {
			rep.FinalDigest = la.Digest
		}
	}

	// Tick-loop timing, self-hosted estates only: the sustained cost of
	// advancing the whole grid each interval, and whether the warped
	// clock ever fell behind its budget.
	if svc != nil {
		ts := svc.TickStats()
		rep.TickIntervals = ts.Intervals
		rep.TickSteps = ts.Steps
		rep.TickMaxMs = float64(ts.Max.Microseconds()) / 1000.0
		rep.TickBudgetMs = float64(ts.Budget.Microseconds()) / 1000.0
		rep.TickOverBudget = ts.OverBudget
		if ts.Intervals > 0 {
			rep.TickMeanMs = float64(ts.Total.Microseconds()) / 1000.0 / float64(ts.Intervals)
		}
	}

	rep.Connected = int(connected.Load())
	rep.ConnectFailures = int(connFail.Load())
	rep.Replies = replies.Load()
	rep.Mix = map[string]*MixStats{}
	for kind, kc := range kinds {
		ms := &MixStats{Conns: int(kc.conns.Load()), Pushes: kc.pushes.Load(), Bytes: kc.bytes.Load()}
		if ms.Conns == 0 && ms.Pushes == 0 {
			continue
		}
		if ms.Pushes > 0 {
			ms.BytesPerPush = float64(ms.Bytes) / float64(ms.Pushes)
		}
		rep.Pushes += ms.Pushes
		rep.PushBytesTotal += ms.Bytes
		rep.Mix[kind] = ms
	}
	if rep.Pushes > 0 {
		rep.BytesPerPush = float64(rep.PushBytesTotal) / float64(rep.Pushes)
	}
	rep.ServerFaults = int(faults.Load())
	if rep.Cores > 0 {
		rep.ConnsPerCore = float64(rep.Connected) / float64(rep.Cores)
	}
	rep.LatencyMs = quantiles(lats)
	rep.WallSeconds = time.Since(wallStart).Seconds()
	return rep, nil
}

func quantiles(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	sort.Float64s(xs)
	at := func(p float64) float64 {
		i := int(p * float64(len(xs)-1))
		return xs[i]
	}
	return Quantiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: xs[len(xs)-1]}
}
