// Package server hosts simulated lands over the slp wire protocol: it is
// the stand-in for the Second Life region servers the paper's monitors
// connected to. A Server hosts one land; an EstateServer hosts a whole
// multi-region grid on a shared warped clock, hands border-crossing
// avatars between its regions in process, and exposes a directory
// endpoint for grid discovery. Servers advance the world simulation in
// real time under a configurable time warp, admit external avatars
// (crawlers) and measurement-grade observers, relay local chat, answer
// coarse and full-resolution map requests, push map subscriptions, and
// enforce each land's object-deployment policy for sensors.
package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"slmob/internal/core"
	"slmob/internal/geom"
	"slmob/internal/sensor"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// ChatRange is the local-chat audibility radius in metres (Second Life's
// "say" range is about 20 m).
const ChatRange = 20.0

// Config configures a region server.
type Config struct {
	// Addr is the TCP listen address; use "127.0.0.1:0" to pick a free
	// port (see Server.Addr).
	Addr string
	// Scenario is the hosted land simulation.
	Scenario world.Scenario
	// Warp is simulated seconds per wall-clock second (>= 1). The paper's
	// crawls ran for 24 real hours; under warp a full day takes
	// 86400/Warp seconds of wall clock.
	Warp float64
	// TickEvery is the wall-clock interval between simulation advances;
	// zero selects 10 ms.
	TickEvery time.Duration
	// Password, when non-empty, is required at login.
	Password string
	// AOIRadius, when positive, imposes an area-of-interest radius (in
	// metres) on every avatar map subscription that did not request its
	// own: pushed maps carry only entities within the radius of the
	// session's avatar. Observer sessions are always exempt.
	AOIRadius float64
	// Analytics configures the live analytics query endpoint; the zero
	// value disables it.
	Analytics AnalyticsConfig
}

// Server is a running single-land region server.
type Server struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	host   *landHost

	// analytics is the live query service; nil when disabled. A single
	// land runs as a one-region estate analysis, so its region 0 query
	// carries the full per-land Analysis (network metrics included).
	analytics *analytics

	wg sync.WaitGroup
}

// New builds the server and binds its listener.
func New(cfg Config) (*Server, error) {
	if cfg.Warp <= 0 {
		cfg.Warp = 1
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	s := &Server{cfg: cfg}
	host, err := newLandHost(&s.mu, &s.closed, cfg.Scenario, cfg.Addr, cfg.Warp, cfg.Password)
	if err != nil {
		return nil, err
	}
	host.defaultAOI = cfg.AOIRadius
	s.host = host
	if cfg.Analytics.enabled() {
		acfg := cfg.Analytics.withDefaults()
		land := cfg.Scenario.Land
		metas := []core.RegionMeta{{Name: land.Name, Size: land.Size}}
		infos := []trace.Info{regionInfo(land.Name, land.Name, geom.Vec{}, land.Size, acfg.Tau)}
		a, err := newAnalytics(land.Name, metas, infos, acfg)
		if err != nil {
			host.ln.Close()
			return nil, err
		}
		s.analytics = a
	}
	return s, nil
}

// QueryAddr returns the analytics query endpoint's bound address, or ""
// when analytics is disabled.
func (s *Server) QueryAddr() string {
	if s.analytics == nil {
		return ""
	}
	return s.analytics.addr()
}

// CloseAnalytics tears the analytics service down (idempotent; no-op
// when disabled). Run leaves the service up on a clean end so the sealed
// whole-trace analysis stays queryable.
func (s *Server) CloseAnalytics() {
	if s.analytics != nil {
		s.analytics.close()
	}
}

// AnalyticsErr reports the analytics engine's failure, if any; call it
// after Run returned (which seals the engine) or after CloseAnalytics.
func (s *Server) AnalyticsErr() error {
	if s.analytics == nil {
		return nil
	}
	return s.analytics.Err()
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.host.addr() }

// SimTime returns the simulation time as of the last completed step,
// without waiting for a tick.
func (s *Server) SimTime() int64 { return s.host.clock.Load() }

// Sensors exposes the sensor engine (for deployment bookkeeping in tests
// and tools).
func (s *Server) Sensors() *sensor.Engine { return s.host.sensors }

// Run serves until the context is cancelled or the duration of the hosted
// scenario elapses in sim time. It always returns a non-nil reason.
func (s *Server) Run(ctx context.Context) error {
	defer s.host.ln.Close()

	acceptErr := make(chan error, 1)
	go func() { acceptErr <- s.host.acceptLoop(&s.wg) }()

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
			if steps > 0 && s.advance(steps) {
				s.shutdown()
				return errors.New("server: scenario duration reached")
			}
		}
	}
}

// advance steps the simulation and reports whether the scenario ended.
// Analytics ticks are sampled under the lock — as residents, at the same
// τ boundaries an in-process source observes — and handed to the engine
// outside it.
func (s *Server) advance(steps int) bool {
	var ticks []trace.EstateTick
	end := false
	s.mu.Lock()
	for i := 0; i < steps; i++ {
		s.host.sim.Step()
		now := s.host.sim.Time()
		s.host.stepLocked(now)
		if s.analytics != nil && now > 0 && now%s.analytics.tau() == 0 {
			states := s.host.sim.ResidentStates(nil)
			snap := trace.Snapshot{T: now, Samples: make([]trace.Sample, len(states))}
			for j, st := range states {
				snap.Samples[j] = trace.Sample{ID: st.ID, Pos: st.Pos, Seated: st.Seated}
			}
			ticks = append(ticks, trace.EstateTick{T: now, Regions: []trace.Snapshot{snap}})
		}
		if now >= s.cfg.Scenario.Duration {
			end = true
			break
		}
	}
	s.mu.Unlock()
	for _, tick := range ticks {
		s.analytics.offer(tick)
	}
	return end
}

func (s *Server) shutdown() {
	// Seal the analytics engine (the whole-trace analysis finalises and
	// publishes); the query endpoint stays up until CloseAnalytics.
	if s.analytics != nil {
		s.analytics.seal()
	}
	// Flag closed first (no new sessions), drain queued pushes to the
	// wire, then tear the connections down — a monitor must not lose the
	// run's final snapshots to the asynchronous write path.
	s.mu.Lock()
	s.closed = true
	sessions := s.host.sessionsLocked()
	s.mu.Unlock()
	drainSessions(sessions, 5*time.Second)
	s.mu.Lock()
	s.host.shutdownLocked()
	s.mu.Unlock()
	s.wg.Wait()
}
