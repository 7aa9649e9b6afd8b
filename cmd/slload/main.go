// Command slload is the serving-path load harness: it floods a live
// estate with thousands of concurrent slp clients — observer monitors
// subscribed to map pushes, optional in-world avatars, and analytics
// readers polling the live query endpoint — and reports connection
// counts, connections-per-core, reply latency quantiles, and server
// faults as JSON.
//
// With no -directory it self-hosts a preset estate with a held clock,
// connects every client, releases the clock, and sustains the mix for
// -run-for of wall time (or until the estate's simulated duration
// elapses). The CI smoke gate runs it against the city preset with
// -min-conns 1000 and requires zero server faults: under the
// drop-slow-consumer policy a healthy, draining client must never be
// disconnected, regardless of how many others are connected.
//
// Usage:
//
//	slload -estate city -observers 640 -readers 400 -warp 1200 -run-for 20s -min-conns 1000
//	slload -estate city -aoi-avatars 800 -aoi-radius 96 -observers 64 -min-conns 800
//	slload -directory 127.0.0.1:7700 -observers 100 -readers 50
//
// The JSON report includes a per-kind mix breakdown (observer, avatar,
// aoi-avatar) with bytes-per-push, the number the AOI bandwidth gate
// reads.
//
// Exit status is 1 when the run records any server fault or connects
// fewer clients than -min-conns.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"slmob/internal/load"
)

func main() {
	var (
		directory  = flag.String("directory", "", "attack a running estate via its directory endpoint (empty: self-host)")
		estate     = flag.String("estate", "paper", "self-hosted estate preset: paper (1x3), mainland (4x4), or city (8x8)")
		seed       = flag.Uint64("seed", 1, "self-hosted simulation seed")
		duration   = flag.Int64("duration", 0, "self-hosted estate duration in sim seconds (0: preset default)")
		warp       = flag.Float64("warp", 600, "self-hosted clock rate")
		window     = flag.Int64("window", 600, "self-hosted analysis window in sim seconds")
		observers  = flag.Int("observers", 64, "observer sessions subscribed to map pushes")
		avatars    = flag.Int("avatars", 0, "in-world avatar sessions on whole-land coarse pushes")
		aoiAvatars = flag.Int("aoi-avatars", 0, "in-world avatar sessions subscribed with an area-of-interest radius")
		aoiRadius  = flag.Float64("aoi-radius", 96, "AOI avatars' subscription radius in metres")
		aoiDelta   = flag.Bool("aoi-delta", true, "AOI avatars request delta-encoded pushes")
		readers    = flag.Int("readers", 32, "analytics reader connections polling the query endpoint")
		tau        = flag.Int64("tau", 0, "observer subscription period in sim seconds (0: the paper's 10s)")
		password   = flag.String("password", "", "estate login password")
		runFor     = flag.Duration("run-for", 10*time.Second, "load phase length in wall time")
		pollEvery  = flag.Duration("poll-every", 50*time.Millisecond, "each reader's query period")
		tickEvery  = flag.Duration("tick-every", time.Millisecond, "self-hosted tick interval; also the per-interval wall budget that -max-tick-overruns counts against")
		jsonPath   = flag.String("json", "", "write the report as JSON to this file (default: stdout)")
		minConns   = flag.Int("min-conns", 0, "fail unless at least this many clients connected")
		maxOverrun = flag.Int64("max-tick-overruns", -1, "fail when more than this many tick intervals overran the budget (-1: no assertion)")
		tickPace   = flag.Bool("require-tick-pace", false, "fail when mean stepping time per interval exceeds the tick budget (the clock cannot keep up)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := load.Run(ctx, load.Config{
		Directory:   *directory,
		Preset:      *estate,
		Seed:        *seed,
		SimDuration: *duration,
		Warp:        *warp,
		Window:      *window,
		Observers:   *observers,
		Avatars:     *avatars,
		AOIAvatars:  *aoiAvatars,
		AOIRadius:   *aoiRadius,
		AOIDelta:    *aoiDelta,
		Readers:     *readers,
		Tau:         *tau,
		Password:    *password,
		RunFor:      *runFor,
		PollEvery:   *pollEvery,
		TickEvery:   *tickEvery,
	})
	if err != nil {
		log.Fatalf("slload: %v", err)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("slload: encode report: %v", err)
	}
	blob = append(blob, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			log.Fatalf("slload: write report: %v", err)
		}
	} else {
		os.Stdout.Write(blob)
	}

	fmt.Fprintf(os.Stderr,
		"slload: %d connected (%d failed), %.0f conns/core, %d pushes (%.0f B/push), %d replies, reader p99 %.2fms, %d faults\n",
		rep.Connected, rep.ConnectFailures, rep.ConnsPerCore, rep.Pushes, rep.BytesPerPush,
		rep.Replies, rep.LatencyMs.P99, rep.ServerFaults)
	for _, kind := range []string{load.KindObserver, load.KindAvatar, load.KindAOIAvatar} {
		if ms := rep.Mix[kind]; ms != nil {
			fmt.Fprintf(os.Stderr, "slload:   %-10s %4d conns, %7d pushes, %.0f B/push\n",
				kind, ms.Conns, ms.Pushes, ms.BytesPerPush)
		}
	}
	if rep.TickIntervals > 0 {
		fmt.Fprintf(os.Stderr,
			"slload:   ticks: %d intervals / %d steps, mean %.3fms max %.3fms (budget %.3fms), %d over budget\n",
			rep.TickIntervals, rep.TickSteps,
			rep.TickMeanMs, rep.TickMaxMs, rep.TickBudgetMs, rep.TickOverBudget)
	}
	if rep.ServerFaults > 0 {
		log.Fatalf("slload: FAIL — %d server faults (errors: %v)", rep.ServerFaults, rep.Errors)
	}
	if rep.Connected < *minConns {
		log.Fatalf("slload: FAIL — %d clients connected, need %d", rep.Connected, *minConns)
	}
	if *maxOverrun >= 0 && rep.TickOverBudget > *maxOverrun {
		log.Fatalf("slload: FAIL — %d tick intervals over the %.3fms budget, allow %d (clock fell behind)",
			rep.TickOverBudget, rep.TickBudgetMs, *maxOverrun)
	}
	// Mean-over-budget means the carry loop accumulates sim time faster
	// than stepping retires it: the warped clock has permanently fallen
	// behind. Isolated spikes (GC, scheduler) are caught up by the next
	// interval's step batch and are policed separately by
	// -max-tick-overruns.
	if *tickPace && rep.TickIntervals > 0 && rep.TickMeanMs > rep.TickBudgetMs {
		log.Fatalf("slload: FAIL — mean tick interval %.3fms exceeds the %.3fms budget (clock cannot sustain warp)",
			rep.TickMeanMs, rep.TickBudgetMs)
	}
}
