// Live-estate walkthrough: serve a multi-region estate over TCP, crawl
// it with clock-aligned monitors, and analyse the live feed — then
// verify against the offline replay of the identical scenario.
//
// This is the paper's online methodology at estate scale: its monitors
// connected to live Second Life region servers and harvested positions
// over the wire. Here the estate service hosts one region server per
// grid cell on a shared warped clock, hands border-crossing avatars
// between its regions in process, and exposes a directory endpoint; one
// observer monitor logs into every region, aligned on the directory
// clock. Because handoffs settle inside each lockstep tick, the live
// measurement is bit-identical to the in-process simulation.
//
//	go run ./examples/live-estate
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"slmob"
)

func main() {
	est := slmob.PaperEstate(42)
	est.Duration = 2 * 3600 // two simulated hours over the wire

	// One call serves the grid (held clock), connects a monitor per
	// region, releases the clock, and analyses the live stream. At warp
	// 2000 the two-hour measurement takes ~3.6 wall seconds. With a
	// window set, completed half-hour windows stream out WHILE the
	// estate is still being served — the live time-of-day view — and the
	// whole-run results below are their exact merge.
	start := time.Now()
	live, err := slmob.AnalyzeEstateLive(context.Background(), est,
		slmob.WithWarp(2000), slmob.WithRegionWorkers(3),
		slmob.WithWindow(1800),
		slmob.WithEstateWindowFunc(func(k int64, w *slmob.EstateAnalysis) {
			fmt.Printf("  [live] window %d (sim %4d..%4d s): %.1f concurrent, %d new pairs r=10m\n",
				k, k*1800, (k+1)*1800, w.Global.Summary.MeanConcurrent,
				w.Global.Contacts[slmob.BluetoothRange].Pairs)
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live estate %q measured over TCP in %s\n",
		live.Estate, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  global: %s\n", live.Global.Summary)
	cs := live.Global.Contacts[slmob.BluetoothRange]
	fmt.Printf("  global r=10m: %d pairs, median CT %.0fs\n\n", cs.Pairs, cs.CT.Median())

	// The individual pieces compose too — serve now, crawl any time
	// later, possibly from another process:
	//
	//	svc, _ := slmob.ServeEstate(ctx, est, slmob.WithHeldClock())
	//	ec, _ := slmob.CrawlEstate(svc.DirectoryAddr())
	//	res, _ := slmob.AnalyzeEstateStream(ctx, ec.Source())
	//
	// (cmd/slserve and cmd/slcrawl -directory are exactly that split.)

	// Offline ground truth: the same estate, seed, and τ, replayed in
	// process. The live path adds region servers, observer monitors,
	// wire codecs, and cross-server handoffs — and changes nothing.
	offline, err := slmob.RunEstate(context.Background(), est, slmob.WithRegionWorkers(3))
	if err != nil {
		log.Fatal(err)
	}
	ocs := offline.Global.Contacts[slmob.BluetoothRange]
	fmt.Printf("offline replay: %s\n", offline.Global.Summary)
	fmt.Printf("  global r=10m: %d pairs, median CT %.0fs\n\n", ocs.Pairs, ocs.CT.Median())

	if live.Global.Summary == offline.Global.Summary &&
		cs.Pairs == ocs.Pairs && cs.CT.N() == ocs.CT.N() {
		fmt.Println("live == offline: the networked estate reproduces the simulation exactly")
	} else {
		fmt.Println("MISMATCH: live and offline measurements diverged")
	}
}
