package slmob

// The live-service façade: serve a multi-region estate over TCP, crawl
// it with clock-aligned monitors, and analyse the live feed — the
// networked counterpart of RunEstate, reproducing the paper's online
// methodology (monitors connected to live region servers) at estate
// scale. A served estate advanced at the same seed is bit-identical to
// the in-process simulation, including every handoff between regions.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"slmob/internal/crawler"
	"slmob/internal/server"
)

// DefaultWarp is the clock rate ServeEstate uses when WithWarp is not
// given: a full 24-hour measurement in 144 wall seconds.
const DefaultWarp = 600

// EstateService is a running networked estate: one region server per
// grid cell, in-process avatar handoffs between them, and a directory
// endpoint for grid discovery, hosted on a background goroutine until
// stopped.
type EstateService struct {
	srv    *server.EstateServer
	cancel context.CancelFunc
	done   chan struct{}
	err    error // terminal Run error; read only after done is closed
}

// ServeEstate starts serving the estate live: every region gets its own
// TCP listener, border-crossing avatars are handed between regions in
// process each tick, and the directory endpoint at
// DirectoryAddr lets clients discover the grid. The service runs until
// Stop, context cancellation, or the estate duration elapsing on the
// shared (warped) clock.
func ServeEstate(ctx context.Context, est Estate, opts ...Option) (*EstateService, error) {
	o := buildOptions(opts)
	warp := o.warp
	if warp <= 0 {
		warp = DefaultWarp
	}
	cfg := server.EstateConfig{
		Estate:    est,
		Addr:      o.serveAddr,
		Warp:      warp,
		TickEvery: o.tickEvery,
		Password:  o.servePassword,
		AOIRadius: o.aoiRadius,
		Hold:      o.holdClock,
	}
	if o.queryAddr != "" {
		cfg.Analytics = server.AnalyticsConfig{
			Addr:     o.queryAddr,
			Tau:      o.tau,
			Window:   o.cfg.Window,
			Analysis: o.cfg,
			Workers:  o.regionWorkers,
		}
	}
	srv, err := server.NewEstate(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	svc := &EstateService{srv: srv, cancel: cancel, done: make(chan struct{})}
	go func() {
		svc.err = srv.Run(ctx)
		close(svc.done)
	}()
	return svc, nil
}

// DirectoryAddr returns the directory endpoint's address — what a
// monitor needs to discover and crawl the whole grid.
func (s *EstateService) DirectoryAddr() string { return s.srv.DirectoryAddr() }

// RegionAddr returns region i's own server address.
func (s *EstateService) RegionAddr(i int) string { return s.srv.RegionAddr(i) }

// QueryAddr returns the live analytics query endpoint's address, or ""
// when WithQueryAddr was not given. Dial it with DialQuery (or
// slanalyze -query).
func (s *EstateService) QueryAddr() string { return s.srv.QueryAddr() }

// SimTime returns the shared estate clock.
func (s *EstateService) SimTime() int64 { return s.srv.SimTime() }

// TickStats reports the service's tick-loop timing so far: how many
// ticker intervals fired, how many simulation steps they ran, total and
// worst-case wall time per interval, and how many intervals overran the
// tick budget (the warped clock falling behind real time). Safe to call
// while the service runs.
func (s *EstateService) TickStats() server.TickStats { return s.srv.TickStats() }

// StartClock releases a clock held by WithHeldClock (idempotent).
func (s *EstateService) StartClock() int64 { return s.srv.StartClock() }

// Done is closed once the service stops — on its own (duration reached,
// network failure) or through Stop; Err then reports why.
func (s *EstateService) Done() <-chan struct{} { return s.done }

// Err returns the service's terminal error. Valid after Done is closed.
func (s *EstateService) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Stop shuts the service down and waits for it (idempotent), analytics
// endpoint included. A clean shutdown — cancellation or the estate
// duration running out — returns nil; a network failure surfaces as the
// error that killed the service.
//
// The analytics endpoint deliberately outlives the estate's own clean
// end (duration reached): until Stop, readers can still fetch the sealed
// whole-trace analysis. Stop is what finally tears it down.
func (s *EstateService) Stop() error {
	s.cancel()
	<-s.done
	s.srv.CloseAnalytics()
	if err := s.err; err != nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, server.ErrDurationReached) {
		return err
	}
	if err := s.srv.AnalyticsErr(); err != nil {
		return err
	}
	return nil
}

// CrawlEstate connects one clock-aligned observer monitor per region of
// a served estate, discovered through its directory endpoint, and
// returns the crawl handle; its Source streams the zipped per-region
// snapshots as an EstateSource for AnalyzeEstateStream. Close the
// crawler when done. WithTau sets the snapshot period (default: the
// paper's 10 s); WithServePassword supplies the estate's credentials.
func CrawlEstate(directory string, opts ...Option) (*crawler.EstateCrawler, error) {
	o := buildOptions(opts)
	return crawler.NewEstate(crawler.EstateConfig{
		Directory: directory,
		Name:      "slmob-monitor",
		Password:  o.servePassword,
		Tau:       o.tau,
	})
}

// AnalyzeEstateLive reproduces the paper's online methodology at estate
// scale, end to end over the network: it serves the estate (held clock),
// logs one observer monitor into every region server, releases the
// shared clock once all monitors are subscribed, and runs the sharded
// incremental analysis on the live feed. For a given estate, seed, and
// τ the result is identical to the offline RunEstate pipeline — the
// live-vs-replay parity test pins it — while every observation
// crosses a real TCP connection from a region server to its monitor.
func AnalyzeEstateLive(ctx context.Context, est Estate, opts ...Option) (*EstateAnalysis, error) {
	o := buildOptions(opts)
	svc, err := ServeEstate(ctx, est, append(append([]Option{}, opts...), WithHeldClock())...)
	if err != nil {
		return nil, err
	}
	defer svc.Stop()

	ec, err := crawler.NewEstate(crawler.EstateConfig{
		Directory:   svc.DirectoryAddr(),
		Name:        "live-monitor",
		Password:    o.servePassword,
		Tau:         o.tau,
		DialTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer ec.Close()

	an, err := AnalyzeEstateStream(ctx, ec.Source(), opts...)
	if err != nil {
		// The crawl usually fails *because* the service died; the root
		// cause is the service's terminal error.
		if serr := svc.Stop(); serr != nil {
			return nil, fmt.Errorf("%w (crawl: %v)", serr, err)
		}
		return nil, err
	}
	return an, nil
}
