package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"slmob"
	"slmob/internal/server"
	"slmob/internal/slp"
)

const (
	// requestEvery is the mean send interval of every open-loop client:
	// each pinger and the query reader send 200 requests a second, enough
	// samples for a steady tail in a 20 s run.
	requestEvery = 5 * time.Millisecond
	dialTimeout  = 10 * time.Second
	// replyTimeout bounds one ping or query; a reply slower than this
	// counts as a failed operation.
	replyTimeout = 2 * time.Second
	// catchUp bounds the wait, after the timed phase, for pushes the
	// server had already produced to reach the observer.
	catchUp = 2 * time.Second
	// overrun bounds how long past its paced end a paced estate may take
	// to finish before the run counts as failed.
	overrun = 30 * time.Second
)

// openLoop calls op at the arrivals of a Poisson process with mean
// interval every, drawn from rng, until stop closes. Arrivals at random
// times keep the calls from locking onto one phase of the server's tick:
// with a fixed period that divides the tick, the run's start phase would
// settle how many calls meet a tick in progress, and the tail latency
// with it. A call that was due while the previous one was still waiting
// for its reply is timed from when it was due, so a stall is charged to
// every call queued behind it; otherwise it is timed from when it was
// sent, so the generator's own timer lateness (up to a millisecond when
// the runtime sleeps) is not charged to the system. late records that
// generator lateness. The loop ends at the first failed call, since its
// connection is then gone; a call cut off because the estate reached its
// end (ended closes) is teardown, not a failure, and is not counted.
func openLoop(stop, ended <-chan struct{}, rng *rand.Rand, every time.Duration, op func(i int) error) (lat, late []float64, fails int) {
	due := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() * float64(every)))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		err := op(i)
		done := time.Now()
		if err != nil {
			select {
			case <-ended:
				return lat, late, 0
			case <-time.After(catchUp):
				return lat, late, 1
			}
		}
		from := sent
		if prevDone.After(due) {
			from = due
		} else {
			late = append(late, msSince(due, sent))
		}
		lat = append(lat, msSince(from, done))
		prevDone = done
	}
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

// observerLog consumes an observer session's full-resolution pushes
// until the connection closes, recording each push's sim time and
// arrival time. The client drops a push its consumer is too slow to
// take, so the log may have gaps; the count of pushes that reached the
// client comes from the client's own wire-level counter.
type observerLog struct {
	c    *slp.Client
	simT []int64
	at   []time.Time
}

func (l *observerLog) consume() {
	for m := range l.c.FullMaps() {
		l.simT = append(l.simT, m.SimTime)
		l.at = append(l.at, time.Now())
	}
}

// waitFor waits until the pushes for sim times up to end, one every
// tau, have reached the client, or catchUp passes.
func (l *observerLog) waitFor(tau, end int64) {
	deadline := time.Now().Add(catchUp)
	for l.c.PushesRead() < uint64(end/tau) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// check verifies the pushes up to sim time end: every push consumed lies
// on the tau grid after the one before it, and at least one push per tau
// reached the client. It returns how many were expected and how many of
// those are missing. Call it after consume has returned.
func (l *observerLog) check(r *run, tau, end int64) (expected, missing int64) {
	expected = end / tau
	bad := 0
	prev := int64(0)
	for _, t := range l.simT {
		if t <= prev || t%tau != 0 {
			bad++
		}
		prev = t
	}
	r.check(bad == 0, "%d observer pushes out of order or off the %d s grid", bad, tau)
	got := int64(l.c.PushesRead())
	r.check(got >= expected, "observer received %d pushes by sim time %d, want %d (one per %d s)", got, end, expected, tau)
	if got < expected {
		missing = expected - got
	}
	return expected, missing
}

// served is a running estate with the benchmark's client connections.
// Once the clock starts, goroutines drain the clients' pushes until the
// server ends the sessions.
type served struct {
	svc       *slmob.EstateService
	dir       slp.Directory
	obs, av   *slp.Client
	qc        *slp.QueryClient
	log       *observerLog
	consumers sync.WaitGroup
	// clockStart is when the clock was released.
	clockStart time.Time

	// wantDigest is what the sealed live analysis must digest to
	// (paper-live): the offline pipeline's result on the same estate and
	// seed, computed in set-up.
	wantDigest string
}

// close stops the service, which ends every session from the server
// side, and then releases the clients (idempotent).
func (s *served) close() {
	if s.svc != nil {
		s.svc.Stop()
	}
	for _, c := range []*slp.Client{s.obs, s.av} {
		if c != nil {
			awaitEnded(c)
		}
	}
	s.consumers.Wait()
	if s.qc != nil {
		s.qc.Close()
	}
}

// awaitEnded releases a client whose session the server has ended. The
// slp client's Close closes its delivery channels from the calling
// goroutine, which panics the client's read loop if that loop is
// delivering a push at that moment. So the benchmark never closes a live
// session: it waits for the read loop to see the server's close, and
// only then calls Close (then a no-op).
func awaitEnded(c *slp.Client) {
	deadline := time.Now().Add(catchUp)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
}

// serve starts the estate with a held clock and dials an observer
// subscribed every obsTau to region obsRegion.
func serve(ctx context.Context, est slmob.Estate, obsRegion int, obsTau int64, opts ...slmob.Option) (*served, error) {
	svc, err := slmob.ServeEstate(ctx, est, append(opts[:len(opts):len(opts)], slmob.WithHeldClock())...)
	if err != nil {
		return nil, err
	}
	s := &served{svc: svc}
	if s.dir, err = slp.FetchDirectory(svc.DirectoryAddr(), dialTimeout); err != nil {
		s.close()
		return nil, err
	}
	if s.obs, err = slp.DialObserver(s.dir.Regions[obsRegion].Addr, "bench-observer", "", dialTimeout); err != nil {
		s.close()
		return nil, err
	}
	if err := s.obs.Subscribe(obsTau, true); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startClock starts draining the clients' pushes, then releases the
// clock.
func (s *served) startClock() {
	s.log = &observerLog{c: s.obs}
	s.consumers.Add(1)
	go func() { defer s.consumers.Done(); s.log.consume() }()
	if s.av != nil {
		s.consumers.Add(1)
		go func() {
			defer s.consumers.Done()
			for range s.av.Maps() {
			}
		}()
	}
	s.clockStart = time.Now()
	s.svc.StartClock()
}

// awaitSimTime waits until the running estate's clock reaches t.
func (s *served) awaitSimTime(t int64) error {
	deadline := time.Now().Add(overrun)
	for s.svc.SimTime() < t {
		select {
		case <-s.svc.Done():
			return fmt.Errorf("the estate stopped at sim time %d before %d: %v", s.svc.SimTime(), t, s.svc.Err())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("the estate did not reach sim time %d within %v", t, overrun)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// City-served client placement: the observer crawls region 27 and the
// AOI avatar stands in the neighbouring region 28, both mid-grid.
const (
	cityObserverRegion = 27
	cityAvatarRegion   = 28
	cityWarp           = 1e5
	// cityWarmUp is the sim time the served city runs through in set-up,
	// before anything is timed: by then the estate is populated and the
	// server has dialled the inter-region links it dials on a link's
	// first handoff.
	cityWarmUp = 3600
)

// cityServed serves the city estate with a clock far faster than the
// tick can follow, so the estate steps as fast as it can, and measures
// the sim rate and the round trip of an avatar's pings.
func cityServed(ctx context.Context, r *run) error {
	est := slmob.CityEstate(r.seed)
	// A week of sim time: at any plausible tick rate the clock is still
	// running when the measurement window closes, so no client is cut
	// off by the estate's own end.
	est.Duration = 7 * slmob.Day
	warp := cityWarp
	if r.tiny {
		// Each tick runs warp/100 steps and a stop waits for the tick in
		// progress, so a smaller warp keeps the tiny run's stops short.
		warp /= 10
	}
	s, err := measureSetup(r, func() (*served, error) {
		s, err := serve(ctx, est, cityObserverRegion, slmob.PaperTau, slmob.WithWarp(warp))
		if err != nil {
			return nil, err
		}
		s.av, err = slp.Dial(s.dir.Regions[cityAvatarRegion].Addr, "bench-avatar", "", dialTimeout)
		if err == nil {
			err = s.av.SubscribeAOI(1, true, 48, true)
		}
		if err == nil {
			s.startClock()
			err = s.awaitSimTime(r.size(cityWarmUp, 60))
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.attempted += 2 // the two client connections, made in setup

	var pinger sync.WaitGroup
	stop := make(chan struct{})
	var lat, late []float64
	var fails int
	simT0, start := s.svc.SimTime(), time.Now()
	pinger.Add(1)
	go func() {
		defer pinger.Done()
		lat, late, fails = openLoop(stop, s.svc.Done(), r.rng(pingStream), requestEvery, func(i int) error {
			id := r.tr.begin(i+1, 0, "slp.ping")
			_, err := s.av.Ping(replyTimeout)
			r.tr.end(id)
			return err
		})
	}()
	select {
	case <-time.After(time.Duration(r.seconds * float64(time.Second))):
	case <-s.svc.Done():
	}
	simT := s.svc.SimTime()
	wall := time.Since(start).Seconds()
	close(stop)
	pinger.Wait()
	r.measuredEnd()
	s.log.waitFor(slmob.PaperTau, simT)
	ts := s.svc.TickStats()
	err = s.svc.Stop()
	r.check(err == nil, "service stopped with %v", err)
	s.consumers.Wait() // the stop ended both sessions
	avPushes, avBytes := s.av.PushesRead(), s.av.PushBytesRead()
	obsPushes, obsBytes := s.obs.PushesRead(), s.obs.PushBytesRead()

	expected, missing := s.log.check(r, slmob.PaperTau, simT)
	r.check(fails == 0, "a ping failed after %d replies", len(lat))
	r.attempted += int64(len(lat)+fails) + expected
	r.failed += int64(fails) + missing

	if r.tr == nil {
		r.set("sim_s_per_s", float64(simT-simT0)/wall)
		r.set("lat_p50_ms", slmob.Quantile(lat, 0.50))
		r.set("lat_mean_ms", mean(lat))
		return nil
	}
	r.set("bench.pass_s", wall)
	pings := r.tr.durations("slp.ping")["slp.ping"]
	r.set("slp.ping_p50_ms", slmob.Quantile(pings, 0.50))
	r.set("slp.ping_p99_ms", slmob.Quantile(pings, 0.99))
	r.set("slp.pushes", float64(avPushes+obsPushes))
	r.set("slp.aoi_bytes_per_push", ratio(int64(avBytes), int64(avPushes)))
	r.set("slp.observer_bytes_per_push", ratio(int64(obsBytes), int64(obsPushes)))
	r.set("gen.late_p99_ms", slmob.Quantile(late, 0.99))
	r.set("server.clock_lag_ms", (start.Sub(s.clockStart).Seconds()+wall-float64(simT)/warp)*1e3)
	if err := worldStage(r, est, r.size(3600, 30)); err != nil {
		return err
	}
	reportTicks(r, ts)
	return nil
}

// reportTicks reports the served tick loop's own timing. route_serve is
// the tick's cost beyond stepping the world, taken from the world stage.
func reportTicks(r *run, ts server.TickStats) {
	tick := 0.0
	if ts.Steps > 0 {
		tick = float64(ts.Total.Nanoseconds()) / 1e3 / float64(ts.Steps)
	}
	r.set("server.tick_us", tick)
	r.set("server.route_serve_us", tick-r.metrics["world.step_us"])
	r.set("server.tick_max_ms", float64(ts.Max.Nanoseconds())/1e6)
	r.set("server.intervals", float64(ts.Intervals))
	r.set("server.over_budget", float64(ts.OverBudget))
}

// paperWindow is paper-live's analysis window, the load harness's
// default; the served duration is a whole number of windows.
const paperWindow = 600

// paperLive serves the paper estate at the default pace with live
// analytics, and times an observer's pings and a reader's queries while
// the estate runs its whole duration.
func paperLive(ctx context.Context, r *run) error {
	est := slmob.PaperEstate(r.seed)
	warp := float64(slmob.DefaultWarp)
	est.Duration = max(paperWindow, int64(r.seconds*warp)/paperWindow*paperWindow)
	opts := []slmob.Option{slmob.WithQueryAddr("127.0.0.1:0"), slmob.WithWindow(paperWindow)}
	if r.tiny {
		warp = 20 * slmob.DefaultWarp
		opts = append(opts, slmob.WithWarp(warp))
	}
	s, err := measureSetup(r, func() (*served, error) {
		offline, err := slmob.RunEstate(ctx, est)
		if err != nil {
			return nil, err
		}
		want, err := slmob.AnalysisDigest(offline.Global)
		if err != nil {
			return nil, err
		}
		s, err := serve(ctx, est, 1, 1, opts...)
		if err != nil {
			return nil, err
		}
		s.wantDigest = want
		if s.qc, err = slp.DialQuery(s.svc.QueryAddr(), dialTimeout); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.attempted += 2

	var clients sync.WaitGroup
	stop := make(chan struct{})
	var pingLat, pingLate, queryLat, queryLate []float64
	var pingFails, queryFails int
	s.startClock()
	clients.Add(2)
	go func() {
		defer clients.Done()
		pingLat, pingLate, pingFails = openLoop(stop, s.svc.Done(), r.rng(pingStream), requestEvery, func(i int) error {
			id := r.tr.begin(i+1, 0, "slp.ping")
			_, err := s.obs.Ping(replyTimeout)
			r.tr.end(id)
			return err
		})
	}()
	go func() {
		defer clients.Done()
		queryLat, queryLate, queryFails = openLoop(stop, s.svc.Done(), r.rng(queryStream), requestEvery, func(i int) error {
			var err error
			// Trace ids of queries start past any ping's.
			trace := 1 << 30
			switch i % 3 {
			case 0:
				id := r.tr.begin(trace+i, 0, "analytics.cumulative")
				_, err = s.qc.Cumulative(-1)
				r.tr.end(id)
			case 1:
				id := r.tr.begin(trace+i, 0, "analytics.stats")
				_, err = s.qc.Stats()
				r.tr.end(id)
			case 2:
				id := r.tr.begin(trace+i, 0, "analytics.window")
				_, err = s.qc.WindowAt(-1, -1)
				r.tr.end(id)
			}
			return err
		})
	}()
	paced := time.Duration(float64(est.Duration) / warp * float64(time.Second))
	finished := true
	select {
	case <-s.svc.Done():
	case <-time.After(paced + overrun):
		finished = false
	}
	wall := time.Since(s.clockStart).Seconds()
	close(stop)
	clients.Wait()
	r.measuredEnd()
	r.check(finished, "the estate did not reach its %d s duration within %v of its paced end", est.Duration, overrun)
	if !finished {
		s.svc.Stop()
	}
	// The estate's end drained the observer's pushes and then ended its
	// session, which ends the consumer.
	s.consumers.Wait()
	stats, statsErr := s.qc.Stats()
	r.check(statsErr == nil, "final stats query: %v", statsErr)
	s.qc.Close()
	ts := s.svc.TickStats()
	obsPushes, obsBytes := s.obs.PushesRead(), s.obs.PushBytesRead()

	// The sealed live analysis must equal the offline pipeline's on the
	// same estate and seed: serving perturbs nothing it measures.
	live, err := slmob.QueryLive(s.svc.QueryAddr())
	r.attempted++
	if err != nil || live.Analysis == nil || !live.Sealed {
		r.failed++
		r.check(false, "sealed live analysis: %v (sealed=%v)", err, live != nil && live.Sealed)
	} else {
		r.check(live.Digest == s.wantDigest, "sealed live digest %s, offline RunEstate %s", live.Digest, s.wantDigest)
	}
	err = s.svc.Stop()
	r.check(err == nil, "service stopped with %v", err)

	expected, missing := s.log.check(r, 1, est.Duration)
	r.check(pingFails == 0, "a ping failed after %d replies", len(pingLat))
	r.check(queryFails == 0, "a query failed after %d replies", len(queryLat))
	r.attempted += int64(len(pingLat)+len(queryLat)+pingFails+queryFails) + expected
	r.failed += int64(pingFails+queryFails) + missing

	if r.tr == nil {
		r.set("sim_s_per_s", float64(est.Duration)/wall)
		// Pings and queries are both round trips to the served estate,
		// of like size; pooled, they give the tail twice the samples.
		all := append(pingLat, queryLat...)
		r.set("lat_p50_ms", slmob.Quantile(all, 0.50))
		r.set("lat_mean_ms", mean(all))
		return nil
	}
	r.set("bench.pass_s", wall)
	pings := r.tr.durations("slp.ping")["slp.ping"]
	r.set("slp.ping_p50_ms", slmob.Quantile(pings, 0.50))
	r.set("slp.ping_p99_ms", slmob.Quantile(pings, 0.99))
	var lag []float64
	for i, t := range s.log.simT {
		due := s.clockStart.Add(time.Duration(float64(t) / warp * float64(time.Second)))
		lag = append(lag, msSince(due, s.log.at[i]))
	}
	r.set("slp.push_lag_p50_ms", slmob.Quantile(lag, 0.50))
	r.set("slp.push_lag_p99_ms", slmob.Quantile(lag, 0.99))
	r.set("slp.pushes", float64(obsPushes))
	r.set("slp.observer_bytes_per_push", ratio(int64(obsBytes), int64(obsPushes)))
	queries := r.tr.durations("analytics.")
	for _, kind := range []string{"cumulative", "window", "stats"} {
		r.set(fmt.Sprintf("analytics.%s_p50_ms", kind), slmob.Quantile(queries["analytics."+kind], 0.50))
	}
	r.set("analytics.queries", float64(stats.Queries))
	r.set("analytics.dropped", float64(stats.Dropped))
	r.set("analytics.windows", float64(stats.Windows))
	r.set("graph.builds", float64(stats.WsSnapshots))
	r.set("graph.incremental_frac", ratio(int64(stats.WsIncremental), int64(stats.WsSnapshots)))
	r.set("gen.late_p99_ms", slmob.Quantile(append(pingLate, queryLate...), 0.99))
	r.set("server.clock_lag_ms", (wall-float64(est.Duration)/warp)*1e3)
	if err := worldStage(r, est, r.size(21600, 60)); err != nil {
		return err
	}
	reportTicks(r, ts)
	return nil
}
