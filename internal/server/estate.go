// Package server hosts simulated lands over the slp wire protocol: it is
// the stand-in for the Second Life region servers the paper's monitors
// connected to. Its one server type, EstateServer, hosts an R×C grid of
// regions on a shared warped clock; a single land is served as a 1×1
// estate (world.SingleRegionEstate). Each region has its own TCP
// listener, the same topology the live service ran, where one simulator
// process hosted each 256 m region of the contiguous grid, and a
// directory endpoint serves grid discovery. The server advances the
// world in real time under a configurable time warp, admits external
// avatars (crawlers) and measurement-grade observers, relays local chat,
// answers coarse and full-resolution map requests, pushes map
// subscriptions, and enforces each land's object-deployment policy for
// sensors.
//
// Every region lives in this one process, so avatar handoffs are
// in-process: each tick calls the same EstateSim.Step as the offline
// estate, which moves an avatar that walked off a region's edge (or
// teleported to another region's attraction) into its destination, or
// turns it back at a full one. The handoffs settle under the estate lock
// before any push of the tick is built, so a monitor never observes an
// avatar mid-flight, and a served estate is bit-identical to the
// in-process EstateSim — pinned by the live-vs-replay parity test.
//
// Failure behaviour: the estate is one measurement instrument, not a
// fault-tolerant fleet. A dead region or directory listener is fatal —
// Run returns the error and shuts every region down — because an estate
// missing a region cannot produce a consistent estate-wide trace.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"slmob/internal/core"
	"slmob/internal/slp"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// EstateConfig configures a networked estate service.
type EstateConfig struct {
	// Estate is the hosted multi-region world.
	Estate world.EstateConfig
	// Addr is the directory endpoint's TCP listen address; use
	// "127.0.0.1:0" to pick a free port (see DirectoryAddr).
	Addr string
	// RegionAddrs optionally pins each region server's listen address,
	// indexed like the estate grid; missing or empty entries pick free
	// ports on the loopback interface.
	RegionAddrs []string
	// Warp is simulated seconds per wall-clock second (>= 1), shared by
	// every region.
	Warp float64
	// TickEvery is the wall-clock interval between clock advances; zero
	// selects 10 ms.
	TickEvery time.Duration
	// Password, when non-empty, is required at login.
	Password string
	// AOIRadius, when positive, imposes an area-of-interest radius (in
	// metres) on every avatar map subscription that did not request its
	// own, in every region. Observer sessions are always exempt.
	AOIRadius float64
	// Hold keeps the shared clock at zero until a ClockStart arrives at
	// the directory endpoint (or StartClock is called), so monitors can
	// connect and subscribe before the first tick — the estate
	// measurement then observes the grid from second one.
	Hold bool
	// Analytics configures the live analytics query endpoint; the zero
	// value disables it.
	Analytics AnalyticsConfig
}

// EstateServer is a running estate service: one region server per grid
// cell plus the directory endpoint, all on one shared clock.
type EstateServer struct {
	cfg      EstateConfig
	duration int64

	mu       sync.Mutex
	closed   bool
	est      *world.EstateSim
	hosts    []*landHost
	dirConns map[net.Conn]struct{} // directory connections, closed on shutdown

	dirLn net.Listener

	tickMu sync.Mutex
	ticks  TickStats

	// analytics is the live query service; nil when disabled. It has
	// its own listener and lifecycle: it survives the estate's clean end
	// so the sealed whole-trace analysis stays queryable, and is torn
	// down by CloseAnalytics.
	analytics *analytics

	held  bool
	start chan struct{}

	wg sync.WaitGroup
}

// ErrDurationReached is the clean end of an estate service: the hosted
// measurement ran its full scheduled duration on the shared clock.
var ErrDurationReached = errors.New("server: estate duration reached")

// TickStats summarises the tick loop's wall-clock behaviour: how often
// the shared clock advanced, how much wall time stepping consumed, and
// whether any ticker interval overran its budget — the signal that the
// simulated clock fell behind real time at the configured warp.
type TickStats struct {
	// Intervals counts ticker fires that stepped the clock; Steps is
	// the total simulated seconds they advanced.
	Intervals int64
	Steps     int64
	// Total and Max are the wall time spent stepping, summed and for
	// the slowest single interval.
	Total time.Duration
	Max   time.Duration
	// Budget is the per-interval wall budget (TickEvery); OverBudget
	// counts intervals whose stepping exceeded it. A sustained run with
	// OverBudget == 0 never fell behind its warped clock.
	Budget     time.Duration
	OverBudget int64
}

// TickStats returns a snapshot of the tick loop's timing counters.
func (s *EstateServer) TickStats() TickStats {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	st := s.ticks
	st.Budget = s.cfg.TickEvery
	return st
}

// recordTick folds one ticker interval's stepping cost into the stats.
func (s *EstateServer) recordTick(steps int, elapsed time.Duration) {
	s.tickMu.Lock()
	s.ticks.Intervals++
	s.ticks.Steps += int64(steps)
	s.ticks.Total += elapsed
	if elapsed > s.ticks.Max {
		s.ticks.Max = elapsed
	}
	if elapsed > s.cfg.TickEvery {
		s.ticks.OverBudget++
	}
	s.tickMu.Unlock()
}

// NewEstate validates the estate, builds one region server per cell plus
// the directory listener.
func NewEstate(cfg EstateConfig) (*EstateServer, error) {
	if cfg.Warp <= 0 {
		cfg.Warp = 1
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	est, err := world.NewEstateSim(cfg.Estate)
	if err != nil {
		return nil, err
	}
	s := &EstateServer{
		cfg:      cfg,
		duration: cfg.Estate.EffectiveDuration(),
		est:      est,
		dirConns: make(map[net.Conn]struct{}),
		held:     cfg.Hold,
		start:    make(chan struct{}),
	}
	if !cfg.Hold {
		close(s.start)
	}
	fail := func(err error) (*EstateServer, error) {
		s.closeListeners()
		if s.analytics != nil {
			s.analytics.close()
		}
		return nil, err
	}
	for i := 0; i < est.NumRegions(); i++ {
		addr := "127.0.0.1:0"
		if i < len(cfg.RegionAddrs) && cfg.RegionAddrs[i] != "" {
			addr = cfg.RegionAddrs[i]
		}
		host, err := newLandHostSim(&s.mu, &s.closed, est.Region(i), addr, cfg.Warp, cfg.Password)
		if err != nil {
			return fail(err)
		}
		host.defaultAOI = cfg.AOIRadius
		s.hosts = append(s.hosts, host)
	}
	dirAddr := cfg.Addr
	if dirAddr == "" {
		dirAddr = "127.0.0.1:0"
	}
	s.dirLn, err = net.Listen("tcp", dirAddr)
	if err != nil {
		return fail(err)
	}
	if cfg.Analytics.enabled() {
		acfg := cfg.Analytics.withDefaults()
		metas := make([]core.RegionMeta, len(s.hosts))
		infos := make([]trace.Info, len(s.hosts))
		for i, h := range s.hosts {
			scn := h.sim.Scenario()
			origin := cfg.Estate.RegionOrigin(i)
			metas[i] = core.RegionMeta{Name: scn.Land.Name, Origin: origin, Size: scn.Land.Size}
			infos[i] = regionInfo(cfg.Estate.Name, scn.Land.Name, origin, scn.Land.Size, acfg.Tau)
		}
		a, err := newAnalytics(cfg.Estate.Name, metas, infos, acfg)
		if err != nil {
			return fail(err)
		}
		s.analytics = a
	}
	// An estate whose directory cannot be framed (too many regions, or
	// absurd names) is a configuration error: fail here, loudly, instead
	// of serving a grid nobody can discover.
	if _, err := slp.Marshal(s.directoryLocked()); err != nil {
		return fail(fmt.Errorf("server: estate directory does not fit a frame: %w", err))
	}
	return s, nil
}

func (s *EstateServer) closeListeners() {
	for _, h := range s.hosts {
		h.ln.Close()
	}
	if s.dirLn != nil {
		s.dirLn.Close()
	}
}

// DirectoryAddr returns the directory endpoint's bound address — the
// single address a client needs to discover the whole grid.
func (s *EstateServer) DirectoryAddr() string { return s.dirLn.Addr().String() }

// RegionAddr returns region i's bound listen address.
func (s *EstateServer) RegionAddr(i int) string { return s.hosts[i].addr() }

// QueryAddr returns the analytics query endpoint's bound address, or ""
// when analytics is disabled.
func (s *EstateServer) QueryAddr() string {
	if s.analytics == nil {
		return ""
	}
	return s.analytics.addr()
}

// CloseAnalytics tears the analytics service down: the engine is sealed
// (finalising the whole-trace analysis from whatever was fed), the query
// listener and every reader connection close, and their goroutines are
// waited out. Idempotent; a no-op when analytics is disabled. Run leaves
// the service up on a clean end so the sealed result stays queryable —
// the owner calls this when done with it.
func (s *EstateServer) CloseAnalytics() {
	if s.analytics != nil {
		s.analytics.close()
	}
}

// AnalyticsErr reports the analytics engine's failure, if any; call it
// after CloseAnalytics (or after Run returned, which seals the engine).
func (s *EstateServer) AnalyticsErr() error {
	if s.analytics == nil {
		return nil
	}
	return s.analytics.Err()
}

// NumRegions returns the number of hosted regions.
func (s *EstateServer) NumRegions() int { return len(s.hosts) }

// SimTime returns the shared clock as of the last completed step. It
// reads the clock the hosts publish, so it never waits for a tick.
func (s *EstateServer) SimTime() int64 { return s.hosts[0].clock.Load() }

// Crossings returns how many walking border handoffs between regions
// completed.
func (s *EstateServer) Crossings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Crossings()
}

// Teleports returns how many inter-region teleports completed.
func (s *EstateServer) Teleports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Teleports()
}

// BlockedHandoffs returns how many handoffs destinations refused at
// capacity.
func (s *EstateServer) BlockedHandoffs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.BlockedHandoffs()
}

// StartClock releases a held clock (idempotent) and returns the shared
// clock value.
func (s *EstateServer) StartClock() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held {
		s.held = false
		close(s.start)
	}
	return s.est.Time()
}

// directoryLocked assembles the directory reply.
func (s *EstateServer) directoryLocked() slp.Directory {
	dir := slp.Directory{
		Estate:   s.cfg.Estate.Name,
		Rows:     uint16(s.cfg.Estate.Rows),
		Cols:     uint16(s.cfg.Estate.Cols),
		SimTime:  s.est.Time(),
		Warp:     s.cfg.Warp,
		Duration: s.duration,
		Held:     s.held,
	}
	if s.analytics != nil {
		dir.QueryAddr = s.analytics.addr()
	}
	for i, h := range s.hosts {
		scn := h.sim.Scenario()
		dir.Regions = append(dir.Regions, slp.DirRegion{
			Name:   scn.Land.Name,
			Addr:   h.addr(),
			Origin: s.cfg.Estate.RegionOrigin(i),
			Size:   scn.Land.Size,
		})
	}
	return dir
}

// Run serves the estate until the context is cancelled, a region or
// directory listener fails, or the estate duration elapses on the shared
// clock. It always returns a non-nil reason.
func (s *EstateServer) Run(ctx context.Context) error {
	defer s.closeListeners()

	acceptErr := make(chan error, len(s.hosts)+1)
	for _, h := range s.hosts {
		host := h
		go func() { acceptErr <- host.acceptLoop(&s.wg) }()
	}
	go func() { acceptErr <- s.directoryLoop() }()

	// A held clock waits for release before tick one, so monitors can
	// subscribe first and observe the measurement from its first second.
	select {
	case <-s.start:
	case <-ctx.Done():
		s.shutdown()
		return ctx.Err()
	case err := <-acceptErr:
		s.shutdown()
		return err
	}

	ticker := time.NewTicker(s.cfg.TickEvery)
	defer ticker.Stop()
	carry := 0.0
	for {
		select {
		case <-ctx.Done():
			s.shutdown()
			return ctx.Err()
		case err := <-acceptErr:
			s.shutdown()
			return err
		case <-ticker.C:
			carry += s.cfg.Warp * s.cfg.TickEvery.Seconds()
			steps := int(carry)
			carry -= float64(steps)
			if steps == 0 {
				continue
			}
			began := time.Now()
			for i := 0; i < steps; i++ {
				if s.step() {
					s.recordTick(i+1, time.Since(began))
					s.shutdown()
					return ErrDurationReached
				}
			}
			s.recordTick(steps, time.Since(began))
		}
	}
}

// step advances the shared clock by one second and reports whether the
// estate duration elapsed. Under the lock, every region simulation ticks
// and the tick's cross-region handoffs settle (EstateSim.Step); then each
// host in turn runs its serving phase: sensors scan, the host publishes
// the clock, and due subscription pushes go out. enqueueRaw is the only
// sink and never blocks (drop-slow-consumer), so a slow client cannot
// hold the clock.
//
// On a τ boundary the regions are sampled for analytics under the same
// lock — after handoffs settled, the instant an in-process EstateSource
// would observe — but the tick is handed to the engine outside it, so
// analysis can never hold the clock.
func (s *EstateServer) step() bool {
	s.mu.Lock()
	s.est.Step()
	now := s.est.Time()
	for _, h := range s.hosts {
		h.stepLocked(now)
	}
	var tick trace.EstateTick
	sample := s.analytics != nil && now > 0 && now%s.analytics.tau() == 0
	if sample {
		tick = trace.EstateTick{T: now, Regions: make([]trace.Snapshot, len(s.hosts))}
		for i, h := range s.hosts {
			states := h.sim.ResidentStates(nil)
			snap := trace.Snapshot{T: now, Samples: make([]trace.Sample, len(states))}
			for j, st := range states {
				snap.Samples[j] = trace.Sample{ID: st.ID, Pos: st.Pos, Seated: st.Seated}
			}
			tick.Regions[i] = snap
		}
	}
	s.mu.Unlock()
	if sample {
		s.analytics.offer(tick)
	}
	return now >= s.duration
}

// directoryLoop serves grid discovery and clock control. Connections
// are registered (under the lock, refused after shutdown began) so
// shutdown can close them: serveDirectory's read deadline is 30 s, and
// an open-but-idle monitor connection must not hold s.wg.Wait — and
// with it Run's return — for that long. The registered-before-Add
// ordering also keeps wg.Add from racing wg.Wait after close.
func (s *EstateServer) directoryLoop() error {
	for {
		conn, err := s.dirLn.Accept()
		if err != nil {
			return fmt.Errorf("server: directory accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.dirConns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.dirConns, conn)
				s.mu.Unlock()
			}()
			s.serveDirectory(conn)
		}()
	}
}

func (s *EstateServer) serveDirectory(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	write := func(m slp.Message) error {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := slp.WriteMessage(bw, m); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		msg, err := slp.ReadMessage(conn)
		if err != nil {
			var de *slp.DecodeError
			if errors.As(err, &de) {
				_ = write(slp.Error{Code: slp.ErrMalformed, Message: de.Error()})
			}
			return
		}
		switch msg.(type) {
		case slp.DirectoryRequest:
			s.mu.Lock()
			dir := s.directoryLocked()
			s.mu.Unlock()
			if err := write(dir); err != nil {
				return
			}
		case slp.ClockStart:
			now := s.StartClock()
			if err := write(slp.ClockStarted{SimTime: now}); err != nil {
				return
			}
		case slp.Logout:
			return
		default:
			_ = write(slp.Error{Code: slp.ErrBadRequest,
				Message: fmt.Sprintf("unexpected %s at directory endpoint", msg.Type())})
			return
		}
	}
}

func (s *EstateServer) shutdown() {
	// Seal the analytics engine first (its feed ends, the whole-trace
	// analysis finalises and publishes); the query endpoint itself stays
	// up until CloseAnalytics so the sealed result remains queryable.
	if s.analytics != nil {
		s.analytics.seal()
	}
	// Flag closed first (no new sessions), then let queued pushes reach
	// the wire before tearing connections down: the run's final
	// snapshots are queued asynchronously, and a monitor that misses
	// them cannot reproduce the measurement.
	s.mu.Lock()
	s.closed = true
	var sessions []*session
	for _, h := range s.hosts {
		sessions = append(sessions, h.sessionsLocked()...)
	}
	s.mu.Unlock()
	drainSessions(sessions, 5*time.Second)
	s.mu.Lock()
	for _, h := range s.hosts {
		h.shutdownLocked()
	}
	for conn := range s.dirConns {
		conn.Close()
	}
	s.mu.Unlock()
	s.closeListeners()
	s.wg.Wait()
}
