// Command slserve hosts a multi-region estate live over the slp wire
// protocol: one region server per grid cell on a shared warped clock,
// avatar handoffs crossing the network between region servers, and a
// directory endpoint for grid discovery — the networked counterpart of
// the offline `slsim -estate` trace writer.
//
// Monitors discover the grid through the directory address and crawl
// every region with clock-aligned observers (cmd/slcrawl -directory, or
// slmob.CrawlEstate). With -hold the shared clock waits for the first
// monitor (or an explicit clock-start) before tick one, so a
// measurement can observe the estate from its very first second.
//
// Usage:
//
//	slserve -estate paper -addr 127.0.0.1:7700 -warp 600 -seed 42
//	slserve -estate mainland -warp 1200 -hold
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"slmob/internal/server"
	"slmob/internal/world"
)

func main() {
	var (
		estate   = flag.String("estate", "paper", "estate preset: paper (1x3), mainland (4x4), or city (8x8)")
		addr     = flag.String("addr", "127.0.0.1:7700", "directory endpoint listen address")
		warp     = flag.Float64("warp", 600, "simulated seconds per wall second")
		workers  = flag.Int("sim-workers", 0, "step regions concurrently on this many goroutines per tick (0 or 1: serial; never changes results)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		duration = flag.Int64("duration", 0, "estate duration in sim seconds (0: preset default)")
		password = flag.String("password", "", "require this password for logins")
		hold     = flag.Bool("hold", false, "hold the shared clock at zero until a clock-start arrives")
		query    = flag.String("query", "", "serve a live analytics query endpoint on this address (empty: disabled)")
		window   = flag.Int64("window", 3600, "analysis window for the query endpoint, in sim seconds")
		aoi      = flag.Float64("aoi", 0, "default area-of-interest radius in metres for avatar subscriptions (0: whole land; observers exempt)")
	)
	flag.Parse()

	var cfg world.EstateConfig
	switch *estate {
	case "paper":
		cfg = world.PaperEstate(*seed)
	case "mainland":
		cfg = world.MainlandEstate(*seed)
	case "city":
		cfg = world.CityEstate(*seed)
	default:
		log.Fatalf("slserve: unknown estate %q (want paper, mainland, or city)", *estate)
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *workers > 0 {
		cfg.SimWorkers = *workers
	}

	srv, err := server.NewEstate(server.EstateConfig{
		Estate:    cfg,
		Addr:      *addr,
		Warp:      *warp,
		Password:  *password,
		AOIRadius: *aoi,
		Hold:      *hold,
		Analytics: server.AnalyticsConfig{
			Addr:   *query,
			Window: *window,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.CloseAnalytics()
	fmt.Printf("slserve: hosting estate %q (%dx%d regions) — directory on %s, warp %gx, duration %ds\n",
		cfg.Name, cfg.Rows, cfg.Cols, srv.DirectoryAddr(), *warp, cfg.EffectiveDuration())
	for i := 0; i < srv.NumRegions(); i++ {
		fmt.Printf("slserve:   region %d %q on %s\n", i, cfg.Regions[i].Land.Name, srv.RegionAddr(i))
	}
	if qa := srv.QueryAddr(); qa != "" {
		fmt.Printf("slserve:   analytics query endpoint on %s (window %ds)\n", qa, *window)
	}
	if *hold {
		fmt.Println("slserve: clock held — waiting for a monitor (or clock-start) to release it")
	}
	fmt.Printf("slserve: a full day takes %s of wall clock\n",
		time.Duration(86400/(*warp)*float64(time.Second)).Round(time.Second))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := srv.Run(ctx); err != nil && ctx.Err() == nil && !errors.Is(err, server.ErrDurationReached) {
		log.Printf("slserve: %v", err)
	}
	fmt.Printf("slserve: stopped at sim time %d — %d crossings, %d teleports, %d blocked handoffs\n",
		srv.SimTime(), srv.Crossings(), srv.Teleports(), srv.BlockedHandoffs())
	if ts := srv.TickStats(); ts.Intervals > 0 {
		fmt.Printf("slserve: ticks — %d workers, %d intervals / %d steps, max %s, %d over the %s budget\n",
			srv.StepWorkers(), ts.Intervals, ts.Steps, ts.Max.Round(time.Microsecond), ts.OverBudget, ts.Budget)
	}
}
