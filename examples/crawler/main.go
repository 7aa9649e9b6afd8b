// Crawler example: the full networked measurement path of the paper. It
// starts a region server hosting Isle of View under a heavy time warp,
// connects the mimicking crawler over TCP, collects a one-hour trace at
// τ = 10 s from coarse map pushes, and analyses it — all in one process,
// but over a real socket.
//
//	go run ./examples/crawler
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"slmob"
	"slmob/internal/crawler"
	"slmob/internal/server"
)

func main() {
	scn := slmob.IsleOfView(7)
	scn.Duration = 86400

	srv, err := server.NewEstate(server.EstateConfig{
		Estate: slmob.SingleRegionEstate(scn),
		Warp:   1200, // one sim hour ≈ 3 wall seconds
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Run(ctx) }()
	fmt.Printf("region server hosting %q on %s (warp 1200x)\n", scn.Land.Name, srv.RegionAddr(0))

	cr, err := crawler.New(crawler.Config{
		Addr:     srv.RegionAddr(0),
		Name:     "paper-crawler",
		Tau:      slmob.PaperTau,
		Duration: 3600,
		Mimic:    true,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawler logged in as avatar %d, mimicking a normal user\n", cr.SelfID())

	// Stream the crawl straight into the incremental analyzer: no trace is
	// ever materialised, and the context bounds the whole measurement.
	runCtx, timeout := context.WithTimeout(ctx, 2*time.Minute)
	defer timeout()
	an, err := slmob.AnalyzeStream(runCtx, cr.Source(), slmob.WithSeatedRepair())
	cr.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(an.Summary)

	cs := an.Contacts[slmob.BluetoothRange]
	fmt.Printf("from the wire (1 m coarse map): median CT %.0fs, ICT %.0fs over %d pairs\n",
		cs.CT.Median(), cs.ICT.Median(), cs.Pairs)
}
