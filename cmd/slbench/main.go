// Command slbench regenerates the paper's complete evaluation: it
// simulates all three target lands for 24 hours, runs the full analysis,
// prints the paper-vs-measured report (BuildReport),
// renders every figure panel as an ASCII chart, and optionally exports
// the panels as CSV.
//
// With -land it benchmarks a single region instead — the short-cycle
// smoke configuration CI runs — and with -json it writes the wall time,
// allocation rate, and headline metrics as machine-readable JSON, the
// format of the BENCH_*.json performance trajectory. The committed
// baseline gates both metric drift and allocation regressions in CI.
//
// With -cpuprofile / -memprofile it writes pprof profiles of the
// simulation+analysis run, the how-to-profile recipe of DESIGN.md §6.
//
// Usage:
//
//	slbench -seed 1 -out figures/
//	slbench -land apfel -duration 3600 -ascii=false -json BENCH_smoke.json
//	slbench -land apfel -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"slmob"
	"slmob/internal/core"
	"slmob/internal/experiment"
	"slmob/internal/graph"
	"slmob/internal/load"
	"slmob/internal/slp"
	"slmob/internal/stats"
	"slmob/internal/world"
)

// landMetrics is one land's headline numbers in the JSON output.
type landMetrics struct {
	Name           string  `json:"name"`
	Unique         int     `json:"unique"`
	MeanConcurrent float64 `json:"mean_concurrent"`
	MaxConcurrent  int     `json:"max_concurrent"`
	CTMedianR10    float64 `json:"ct_median_r10_s"`
	ICTMedianR10   float64 `json:"ict_median_r10_s"`
	DegZeroFracR10 float64 `json:"deg_zero_frac_r10"`
}

// windowTiming is one window's share of the windowed replay pass.
type windowTiming struct {
	Index     int64   `json:"index"`
	Snapshots int     `json:"snapshots"`
	WallMS    float64 `json:"wall_ms"`
}

// incrementalStats is the JSON view of the analysis core's
// temporal-coherence engine over a run: what fraction of per-range
// snapshot graphs were patched from the previous snapshot instead of
// rebuilt, the per-snapshot diff rates behind that, and the metric-cache
// hit ratios.
type incrementalStats struct {
	// Snapshots counts per-range graph builds (snapshots × ranges).
	Snapshots int64 `json:"snapshots"`
	// IncrementalFrac is the fraction of builds served by the delta path.
	IncrementalFrac float64 `json:"incremental_frac"`
	// FullRebuilds counts scratch builds (first snapshots, churn
	// fallbacks).
	FullRebuilds int64 `json:"full_rebuilds"`
	// MovedPerSnapshot / ArrivedPerSnapshot / DepartedPerSnapshot are the
	// mean per-build diff rates over the diffed builds.
	MovedPerSnapshot    float64 `json:"moved_per_snapshot"`
	ArrivedPerSnapshot  float64 `json:"arrived_per_snapshot"`
	DepartedPerSnapshot float64 `json:"departed_per_snapshot"`
	// EdgesChangedPerSnapshot is the mean number of adjacency patches
	// (adds + removes) per incremental build.
	EdgesChangedPerSnapshot float64 `json:"edges_changed_per_snapshot"`
	// DiamReuseFrac is the share of diameters answered from the
	// component cache; CCReuseFrac the share of per-vertex clustering
	// inputs (degree, triangle count) unchanged since the previous call.
	DiamReuseFrac float64 `json:"diam_reuse_frac"`
	CCReuseFrac   float64 `json:"cc_reuse_frac"`
}

// incrementalOf condenses summed workspace counters into the JSON block.
func incrementalOf(st graph.WorkspaceStats) *incrementalStats {
	if st.Snapshots == 0 {
		return nil
	}
	out := &incrementalStats{
		Snapshots:       st.Snapshots,
		IncrementalFrac: float64(st.Incremental) / float64(st.Snapshots),
		FullRebuilds:    st.FullRebuilds,
	}
	diffed := st.Snapshots // every ApplyPositions call diffs (or is the first build)
	out.MovedPerSnapshot = float64(st.Moved) / float64(diffed)
	out.ArrivedPerSnapshot = float64(st.Arrived) / float64(diffed)
	out.DepartedPerSnapshot = float64(st.Departed) / float64(diffed)
	if st.Incremental > 0 {
		out.EdgesChangedPerSnapshot = float64(st.EdgesAdded+st.EdgesRemoved) / float64(st.Incremental)
	}
	if n := st.DiamReused + st.DiamComputed; n > 0 {
		out.DiamReuseFrac = float64(st.DiamReused) / float64(n)
	}
	if n := st.CCReused + st.CCComputed; n > 0 {
		out.CCReuseFrac = float64(st.CCReused) / float64(n)
	}
	return out
}

// churnRun is one churn-sweep preset's measurement: wall time plus the
// incremental-hit profile under that mobility level. The baseline gate
// compares wall times, so a fallback-threshold change that regresses the
// high-churn preset fails CI.
type churnRun struct {
	Level       string            `json:"level"`
	WallMS      int64             `json:"wall_ms"`
	Incremental *incrementalStats `json:"incremental,omitempty"`
}

// benchOutput is the JSON artifact schema.
type benchOutput struct {
	Seed        uint64 `json:"seed"`
	DurationSec int64  `json:"duration_sec"`
	Tau         int64  `json:"tau_sec"`
	WallMS      int64  `json:"wall_ms"`
	// AllocsPerSnapshot is the heap-allocation rate of the whole
	// simulate+analyse run, normalised per snapshot per land — the number
	// the CI gate watches for allocation regressions in the hot path.
	AllocsPerSnapshot float64       `json:"allocs_per_snapshot"`
	Lands             []landMetrics `json:"lands"`

	// Windowed replay pass (-window): total wall time of the windowed
	// analysis over the first land's trace, plus per-window timing, so
	// the baseline gate covers window-rollover cost too.
	WindowSec      int64          `json:"window_sec,omitempty"`
	WindowedWallMS int64          `json:"windowed_wall_ms,omitempty"`
	Windows        []windowTiming `json:"windows,omitempty"`

	// Incremental reports how the temporal-coherence graph engine served
	// the main run, summed over all lands and ranges.
	Incremental *incrementalStats `json:"incremental,omitempty"`
	// ChurnSweep holds the -churn-sweep measurements (low/medium/high
	// mobility presets), in preset order.
	ChurnSweep []churnRun `json:"churn_sweep,omitempty"`
	// QueryBench measures the live analytics query endpoint: round-trip
	// latency quantiles against a sealed served estate.
	QueryBench *queryBench `json:"query_bench,omitempty"`
	// TickBench measures the parallel tick engine: whole-estate tick wall
	// time and throughput at several worker counts, per preset.
	TickBench []tickBench `json:"tick_bench,omitempty"`
	// ServingBench measures the map-serving path: per-kind bytes-per-push
	// for whole-land versus AOI-delta avatar subscribers on a short
	// self-hosted estate.
	ServingBench *servingBench `json:"serving_bench,omitempty"`
}

// servingBench is the -serving-bench measurement: a held paper estate is
// loaded with observer, whole-land avatar, and AOI-delta avatar
// contingents; the block records each kind's bandwidth and the reduction
// interest management buys.
type servingBench struct {
	Observers  int    `json:"observers"`
	Avatars    int    `json:"avatars"`
	AOIAvatars int    `json:"aoi_avatars"`
	Pushes     uint64 `json:"pushes"`
	// ServerFaults must be zero: every bench client drains promptly.
	ServerFaults       int     `json:"server_faults"`
	AvatarBytesPerPush float64 `json:"avatar_bytes_per_push"`
	AOIBytesPerPush    float64 `json:"aoi_bytes_per_push"`
	// FullToAOIRatio is avatar over AOI bytes-per-push — the factor the
	// baseline gate keeps from collapsing.
	FullToAOIRatio float64 `json:"full_to_aoi_ratio"`
}

// tickBench is one estate preset's -tick-bench measurement: the same
// seed stepped through the same number of whole-estate ticks at each
// worker count. Worker count never changes the simulation (the
// differential gates pin that); these runs measure only wall time.
type tickBench struct {
	Estate  string `json:"estate"`
	Regions int    `json:"regions"`
	Ticks   int64  `json:"ticks"`
	// Cores is the bench machine's CPU count — the scaling gate only
	// demands its multicore speedup factor on machines that have the
	// cores to show it.
	Cores int       `json:"cores"`
	Runs  []tickRun `json:"runs"`
}

// tickRun is one worker count's measurement within a tickBench.
type tickRun struct {
	Workers     int     `json:"workers"`
	WallMS      float64 `json:"wall_ms"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	// Speedup is this run's throughput over the serial run's.
	Speedup float64 `json:"speedup"`
}

// tickThroughput returns the run entry for a worker count, nil if absent.
func (tb tickBench) run(workers int) *tickRun {
	for i := range tb.Runs {
		if tb.Runs[i].Workers == workers {
			return &tb.Runs[i]
		}
	}
	return nil
}

// tickBenchRun steps one estate preset for a fixed number of ticks at
// each worker count, measuring whole-estate tick throughput. Every run
// rebuilds the estate from the same seed, so each one performs the
// identical simulation work — construction and warmup are excluded from
// the timed span.
func tickBenchRun(ctx context.Context, cfg world.EstateConfig, ticks int64) (tickBench, error) {
	tb := tickBench{
		Estate:  cfg.Name,
		Regions: cfg.Rows * cfg.Cols,
		Ticks:   ticks,
		Cores:   runtime.NumCPU(),
	}
	for _, workers := range []int{1, 2, 4, 8} {
		if err := ctx.Err(); err != nil {
			return tb, err
		}
		c := cfg
		c.SimWorkers = workers
		sim, err := world.NewEstateSim(c)
		if err != nil {
			return tb, err
		}
		start := time.Now()
		sim.RunUntil(ticks)
		wall := time.Since(start)
		sim.Close()
		run := tickRun{
			Workers:     workers,
			WallMS:      float64(wall.Microseconds()) / 1000,
			TicksPerSec: float64(ticks) / wall.Seconds(),
		}
		if serial := tb.run(1); serial != nil && serial.TicksPerSec > 0 {
			run.Speedup = run.TicksPerSec / serial.TicksPerSec
		} else if workers == 1 {
			run.Speedup = 1
		}
		tb.Runs = append(tb.Runs, run)
	}
	return tb, nil
}

// queryBench is the -query-bench measurement: a served estate is run to
// completion and its analytics endpoint hammered with a rotation of
// cumulative, stats, and window queries.
type queryBench struct {
	Queries       int     `json:"queries"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	RepliesPerSec float64 `json:"replies_per_sec"`
	// BlobBytes is the sealed cumulative analysis' encoded size — the
	// payload every cumulative query carries.
	BlobBytes int `json:"blob_bytes"`
}

func metricsOf(an *core.Analysis) landMetrics {
	med := func(w *stats.Weighted) float64 {
		if w.N() == 0 {
			return 0
		}
		return w.Median()
	}
	cs := an.Contacts[core.BluetoothRange]
	return landMetrics{
		Name:           an.Land,
		Unique:         an.Summary.Unique,
		MeanConcurrent: an.Summary.MeanConcurrent,
		MaxConcurrent:  an.Summary.MaxConcurrent,
		CTMedianR10:    med(cs.CT),
		ICTMedianR10:   med(cs.ICT),
		DegZeroFracR10: an.Nets[core.BluetoothRange].DegreeZeroFraction(),
	}
}

// compareBaseline checks the fresh metrics against a committed baseline
// with a generous relative tolerance — the gate catches distribution
// shifts, gross slowdowns, and allocation regressions, not
// machine-to-machine noise.
func compareBaseline(fresh benchOutput, path string, tol, wallTol, allocTol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchOutput
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.Seed != fresh.Seed || base.DurationSec != fresh.DurationSec || base.Tau != fresh.Tau {
		return fmt.Errorf("baseline ran seed=%d duration=%d tau=%d, this run seed=%d duration=%d tau=%d",
			base.Seed, base.DurationSec, base.Tau, fresh.Seed, fresh.DurationSec, fresh.Tau)
	}
	within := func(what string, got, want float64) error {
		if diff := math.Abs(got - want); diff > tol*math.Max(math.Abs(want), 1) {
			return fmt.Errorf("%s = %v, baseline %v (tolerance %.0f%%)", what, got, want, tol*100)
		}
		return nil
	}
	baseLands := make(map[string]landMetrics, len(base.Lands))
	for _, lm := range base.Lands {
		baseLands[lm.Name] = lm
	}
	for _, lm := range fresh.Lands {
		want, ok := baseLands[lm.Name]
		if !ok {
			return fmt.Errorf("land %q missing from baseline", lm.Name)
		}
		checks := []error{
			within(lm.Name+" unique", float64(lm.Unique), float64(want.Unique)),
			within(lm.Name+" mean concurrent", lm.MeanConcurrent, want.MeanConcurrent),
			within(lm.Name+" max concurrent", float64(lm.MaxConcurrent), float64(want.MaxConcurrent)),
			within(lm.Name+" CT median r10", lm.CTMedianR10, want.CTMedianR10),
			within(lm.Name+" ICT median r10", lm.ICTMedianR10, want.ICTMedianR10),
			within(lm.Name+" deg-zero frac r10", lm.DegZeroFracR10, want.DegZeroFracR10),
		}
		for _, err := range checks {
			if err != nil {
				return err
			}
		}
	}
	if base.WallMS > 0 && float64(fresh.WallMS) > wallTol*float64(base.WallMS) {
		return fmt.Errorf("wall time %d ms exceeds %gx baseline %d ms", fresh.WallMS, wallTol, base.WallMS)
	}
	if base.AllocsPerSnapshot > 0 && fresh.AllocsPerSnapshot > allocTol*base.AllocsPerSnapshot {
		return fmt.Errorf("allocs/snapshot %.1f exceeds %gx baseline %.1f",
			fresh.AllocsPerSnapshot, allocTol, base.AllocsPerSnapshot)
	}
	// Windowed replay gate: rollover cost is covered when both runs
	// carried a windowed pass of the same geometry.
	if base.WindowSec > 0 && fresh.WindowSec == base.WindowSec {
		if len(fresh.Windows) != len(base.Windows) {
			return fmt.Errorf("windowed pass produced %d windows, baseline %d", len(fresh.Windows), len(base.Windows))
		}
		if base.WindowedWallMS > 0 && float64(fresh.WindowedWallMS) > wallTol*float64(base.WindowedWallMS) {
			return fmt.Errorf("windowed wall time %d ms exceeds %gx baseline %d ms",
				fresh.WindowedWallMS, wallTol, base.WindowedWallMS)
		}
	}
	// Query-endpoint gate: reply latency must not blow past the same
	// slowdown factor the wall-time gates use (latency is machine-noisy;
	// the gate catches serialisation-path regressions, not jitter).
	if base.QueryBench != nil && fresh.QueryBench != nil && base.QueryBench.P99Ms > 0 &&
		fresh.QueryBench.P99Ms > wallTol*base.QueryBench.P99Ms {
		return fmt.Errorf("query p99 latency %.2f ms exceeds %gx baseline %.2f ms",
			fresh.QueryBench.P99Ms, wallTol, base.QueryBench.P99Ms)
	}
	// Serving-path gate: interest management must keep buying its
	// bandwidth reduction. An AOI avatar's bytes-per-push may not grow
	// past 3x the baseline, the full/AOI reduction factor may not collapse
	// below half the baseline's (a silently-unfiltered push path would
	// pass every latency check while serving whole-land maps), and no
	// bench client — all of them prompt drainers — may be dropped.
	if base.ServingBench != nil && fresh.ServingBench != nil {
		if fresh.ServingBench.ServerFaults > 0 {
			return fmt.Errorf("serving bench recorded %d server faults", fresh.ServingBench.ServerFaults)
		}
		if base.ServingBench.AOIBytesPerPush > 0 &&
			fresh.ServingBench.AOIBytesPerPush > 3*base.ServingBench.AOIBytesPerPush {
			return fmt.Errorf("AOI bytes/push %.0f exceeds 3x baseline %.0f",
				fresh.ServingBench.AOIBytesPerPush, base.ServingBench.AOIBytesPerPush)
		}
		if base.ServingBench.FullToAOIRatio > 1 &&
			fresh.ServingBench.FullToAOIRatio < base.ServingBench.FullToAOIRatio/2 {
			return fmt.Errorf("full/AOI bandwidth ratio %.1f collapsed from baseline %.1f",
				fresh.ServingBench.FullToAOIRatio, base.ServingBench.FullToAOIRatio)
		}
	}
	// Incremental-engine gate: the fraction of snapshots served
	// incrementally must not collapse (a silently-broken delta path would
	// fall back to scratch everywhere and pass every metric check), and
	// each churn-sweep preset's wall time must stay within the slowdown
	// tolerance — in particular the high-churn preset, where the fallback
	// heuristic is what keeps the engine no slower than a scratch build.
	if base.Incremental != nil && fresh.Incremental != nil &&
		base.Incremental.IncrementalFrac > 0.1 &&
		fresh.Incremental.IncrementalFrac < base.Incremental.IncrementalFrac/2 {
		return fmt.Errorf("incremental fraction %.3f collapsed from baseline %.3f",
			fresh.Incremental.IncrementalFrac, base.Incremental.IncrementalFrac)
	}
	// Parallel tick-engine gate: serial whole-estate tick throughput must
	// not collapse (same slowdown factor as the wall-time gates), and on
	// a machine with the cores to show it, stepping the city-scale estate
	// with 8 workers must keep buying at least a 3x throughput gain over
	// serial — the scaling floor the parallel tick engine exists for.
	// Few-core machines still run the bench and feed the baseline, but a
	// speedup they cannot physically reach is not demanded of them; the
	// paper estate's 3 regions cannot occupy 8 workers either, so the
	// scaling demand applies to grids of at least 8 regions.
	if len(base.TickBench) > 0 && len(fresh.TickBench) > 0 {
		baseTB := make(map[string]tickBench, len(base.TickBench))
		for _, tb := range base.TickBench {
			baseTB[tb.Estate] = tb
		}
		for _, tb := range fresh.TickBench {
			want, ok := baseTB[tb.Estate]
			if ok && want.Ticks == tb.Ticks {
				if bs, fs := want.run(1), tb.run(1); bs != nil && fs != nil && bs.TicksPerSec > 0 &&
					fs.TicksPerSec < bs.TicksPerSec/wallTol {
					return fmt.Errorf("%s serial tick throughput %.0f/s fell below 1/%gx baseline %.0f/s",
						tb.Estate, fs.TicksPerSec, wallTol, bs.TicksPerSec)
				}
			}
			if tb.Cores >= 8 && tb.Regions >= 8 {
				if r8 := tb.run(8); r8 != nil && r8.Speedup < 3 {
					return fmt.Errorf("%s tick throughput at 8 workers is %.2fx serial on a %d-core machine, want >= 3x",
						tb.Estate, r8.Speedup, tb.Cores)
				}
			}
		}
	}
	if len(base.ChurnSweep) > 0 && len(fresh.ChurnSweep) > 0 {
		baseChurn := make(map[string]churnRun, len(base.ChurnSweep))
		for _, cr := range base.ChurnSweep {
			baseChurn[cr.Level] = cr
		}
		for _, cr := range fresh.ChurnSweep {
			want, ok := baseChurn[cr.Level]
			if !ok {
				continue
			}
			if want.WallMS > 0 && float64(cr.WallMS) > wallTol*float64(want.WallMS) {
				return fmt.Errorf("churn preset %q wall time %d ms exceeds %gx baseline %d ms",
					cr.Level, cr.WallMS, wallTol, want.WallMS)
			}
		}
	}
	return nil
}

// churnSweep measures each mobility preset: simulate+analyse with the
// incremental engine on, recording wall time and the incremental-hit
// profile.
func churnSweep(ctx context.Context, seed uint64, duration int64) ([]churnRun, error) {
	var out []churnRun
	for _, level := range world.ChurnLevels {
		scn, err := world.ChurnScenario(level, seed)
		if err != nil {
			return nil, err
		}
		scn.Duration = duration
		start := time.Now()
		run, err := experiment.RunLand(ctx, scn, core.PaperTau)
		if err != nil {
			return nil, fmt.Errorf("churn preset %q: %w", level, err)
		}
		out = append(out, churnRun{
			Level:       level,
			WallMS:      time.Since(start).Milliseconds(),
			Incremental: incrementalOf(run.Workspace),
		})
	}
	return out, nil
}

// queryBenchRun serves a short paper estate with the analytics endpoint
// enabled, runs it to completion at high warp, and measures query
// round-trips against the sealed service.
func queryBenchRun(ctx context.Context, seed uint64) (*queryBench, error) {
	est := slmob.PaperEstate(seed)
	est.Duration = 1200
	svc, err := slmob.ServeEstate(ctx, est,
		slmob.WithWarp(4000), slmob.WithTickEvery(time.Millisecond),
		slmob.WithWindow(600), slmob.WithQueryAddr("127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	defer svc.Stop()
	select {
	case <-svc.Done():
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	qc, err := slp.DialQuery(svc.QueryAddr(), 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer qc.Close()
	res, err := qc.Cumulative(-1)
	if err != nil {
		return nil, err
	}
	const queries = 600
	lats := make([]float64, 0, queries)
	start := time.Now()
	for n := 0; n < queries; n++ {
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
			return nil, err
		}
		lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
	}
	elapsed := time.Since(start).Seconds()
	sort.Float64s(lats)
	return &queryBench{
		Queries:       queries,
		P50Ms:         lats[len(lats)/2],
		P99Ms:         lats[len(lats)*99/100],
		RepliesPerSec: float64(queries) / elapsed,
		BlobBytes:     len(res.Blob),
	}, nil
}

// servingBenchRun floods a short held paper estate with a mixed client
// population — observers on full-resolution pushes, whole-land coarse
// avatars, and AOI-delta avatars — and distils the load report into the
// per-kind bandwidth block.
func servingBenchRun(ctx context.Context, seed uint64) (*servingBench, error) {
	rep, err := load.Run(ctx, load.Config{
		Preset:      "paper",
		Seed:        seed,
		SimDuration: 1200,
		Warp:        600,
		Window:      600,
		Observers:   6,
		Avatars:     24,
		AOIAvatars:  24,
		AOIRadius:   48,
		AOIDelta:    true,
		Tau:         core.PaperTau,
		RunFor:      20 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	sb := &servingBench{
		Observers:    rep.Observers,
		Avatars:      rep.Avatars,
		AOIAvatars:   rep.AOIAvatars,
		Pushes:       rep.Pushes,
		ServerFaults: rep.ServerFaults,
	}
	if ms := rep.Mix[load.KindAvatar]; ms != nil {
		sb.AvatarBytesPerPush = ms.BytesPerPush
	}
	if ms := rep.Mix[load.KindAOIAvatar]; ms != nil {
		sb.AOIBytesPerPush = ms.BytesPerPush
	}
	if sb.AOIBytesPerPush > 0 {
		sb.FullToAOIRatio = sb.AvatarBytesPerPush / sb.AOIBytesPerPush
	}
	return sb, nil
}

// windowedPass replays the land's trace through the windowed analyzer
// with a timing hook, charging each window — rollover included — its
// wall-clock share.
func windowedPass(run *experiment.LandRun, window int64) (int64, []windowTiming, error) {
	wa, err := core.NewWindowedAnalyzer(run.Trace.Land, run.Trace.Tau, window,
		core.Config{LandSize: run.Scenario.Land.Size})
	if err != nil {
		return 0, nil, err
	}
	var timings []windowTiming
	start := time.Now()
	last := start
	wa.OnWindow(func(k int64, an *core.Analysis) {
		now := time.Now()
		timings = append(timings, windowTiming{
			Index:     k,
			Snapshots: an.Summary.Snapshots,
			WallMS:    float64(now.Sub(last).Microseconds()) / 1000,
		})
		last = now
	})
	if _, err := wa.Consume(context.Background(), run.Trace.Source()); err != nil {
		return 0, nil, err
	}
	return time.Since(start).Milliseconds(), timings, nil
}

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "simulation seed")
		duration   = flag.Int64("duration", world.DayDuration, "measurement length in sim seconds")
		out        = flag.String("out", "", "write figure CSVs to this directory")
		ascii      = flag.Bool("ascii", true, "render ASCII figures")
		land       = flag.String("land", "", "benchmark a single land (apfel, dance, isle) instead of all three")
		jsonOut    = flag.String("json", "", "write wall time and headline metrics as JSON to this file")
		baseline   = flag.String("baseline", "", "compare the fresh metrics against this committed baseline JSON")
		tol        = flag.Float64("tolerance", 0.5, "relative metric tolerance for -baseline")
		wallTol    = flag.Float64("wall-tolerance", 10, "wall-time slowdown factor tolerated by -baseline")
		allocTol   = flag.Float64("alloc-tolerance", 3, "allocs/snapshot growth factor tolerated by -baseline")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
		window     = flag.Int64("window", 0, "additionally replay the first land through the windowed analyzer with windows of this many seconds, timing each window")
		churn      = flag.Bool("churn-sweep", false, "additionally run the low/medium/high mobility presets, recording wall time and incremental-hit statistics per preset")
		queryB     = flag.Bool("query-bench", true, "additionally serve a short paper estate and measure live query-endpoint latency")
		servingB   = flag.Bool("serving-bench", true, "additionally load a short paper estate with a mixed client population and measure per-kind push bandwidth")
		tickB      = flag.Bool("tick-bench", true, "additionally step the paper and city estates at several worker counts and measure whole-estate tick throughput")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The CPU profile covers exactly the measured simulate+analyse span
	// and is flushed as soon as it ends: a later log.Fatal (baseline
	// regression, export error) exits without running defers, and the
	// regressing run is precisely the one worth profiling.
	stopCPUProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var runs []*experiment.LandRun
	if *land != "" {
		scn, err := world.PaperLand(*land, *seed)
		if err != nil {
			log.Fatal(err)
		}
		scn.Duration = *duration
		fmt.Printf("slbench: simulating %q for %d sim seconds (seed %d)...\n",
			scn.Land.Name, *duration, *seed)
		run, err := experiment.RunLand(ctx, scn, core.PaperTau)
		if err != nil {
			log.Fatal(err)
		}
		runs = []*experiment.LandRun{run}
	} else {
		fmt.Printf("slbench: simulating the three target lands for %d sim seconds (seed %d)...\n",
			*duration, *seed)
		var err error
		runs, err = experiment.RunLands(ctx, *seed, *duration, core.PaperTau)
		if err != nil {
			log.Fatal(err)
		}
	}
	wall := time.Since(start)
	stopCPUProfile()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	snapshots := float64(len(runs)) * float64(*duration) / float64(core.PaperTau)
	allocsPerSnap := 0.0
	if snapshots > 0 {
		allocsPerSnap = float64(memAfter.Mallocs-memBefore.Mallocs) / snapshots
	}
	fmt.Printf("slbench: simulation + analysis took %s (%.0f allocs/snapshot)\n\n",
		wall.Round(time.Millisecond), allocsPerSnap)

	for _, run := range runs {
		fmt.Println(run.Analysis.Summary.String())
	}
	fmt.Println()

	bo := benchOutput{
		Seed:              *seed,
		DurationSec:       *duration,
		Tau:               core.PaperTau,
		WallMS:            wall.Milliseconds(),
		AllocsPerSnapshot: allocsPerSnap,
	}
	var wsSum graph.WorkspaceStats
	for _, run := range runs {
		bo.Lands = append(bo.Lands, metricsOf(run.Analysis))
		wsSum.Add(run.Workspace)
	}
	bo.Incremental = incrementalOf(wsSum)
	if inc := bo.Incremental; inc != nil {
		fmt.Printf("slbench: incremental graph builds: %.1f%% of %d (moved %.1f, ±%.1f avatars and %.1f edges per snapshot; diameter reuse %.1f%%, clustering reuse %.1f%%)\n\n",
			inc.IncrementalFrac*100, inc.Snapshots, inc.MovedPerSnapshot,
			inc.ArrivedPerSnapshot+inc.DepartedPerSnapshot, inc.EdgesChangedPerSnapshot,
			inc.DiamReuseFrac*100, inc.CCReuseFrac*100)
	}
	if *churn {
		sweep, err := churnSweep(ctx, *seed, *duration)
		if err != nil {
			log.Fatal(err)
		}
		bo.ChurnSweep = sweep
		for _, cr := range sweep {
			frac := 0.0
			if cr.Incremental != nil {
				frac = cr.Incremental.IncrementalFrac
			}
			fmt.Printf("slbench: churn %-6s %6d ms wall, %.1f%% incremental\n", cr.Level, cr.WallMS, frac*100)
		}
		fmt.Println()
	}
	if *window > 0 {
		wms, timings, err := windowedPass(runs[0], *window)
		if err != nil {
			log.Fatal(err)
		}
		bo.WindowSec = *window
		bo.WindowedWallMS = wms
		bo.Windows = timings
		fmt.Printf("slbench: windowed replay (%d s windows) took %d ms over %d windows\n\n",
			*window, wms, len(timings))
	}
	if *queryB {
		qb, err := queryBenchRun(ctx, *seed)
		if err != nil {
			log.Fatal(err)
		}
		bo.QueryBench = qb
		fmt.Printf("slbench: query endpoint: %d queries, p50 %.2f ms, p99 %.2f ms, %.0f replies/s, %d-byte sealed blob\n\n",
			qb.Queries, qb.P50Ms, qb.P99Ms, qb.RepliesPerSec, qb.BlobBytes)
	}
	if *servingB {
		sb, err := servingBenchRun(ctx, *seed)
		if err != nil {
			log.Fatal(err)
		}
		bo.ServingBench = sb
		fmt.Printf("slbench: serving path: %d pushes, avatar %.0f B/push, AOI %.0f B/push (%.1fx reduction), %d faults\n\n",
			sb.Pushes, sb.AvatarBytesPerPush, sb.AOIBytesPerPush, sb.FullToAOIRatio, sb.ServerFaults)
	}
	if *tickB {
		for _, tc := range []struct {
			cfg   world.EstateConfig
			ticks int64
		}{
			{world.PaperEstate(*seed), 20000},
			{world.CityEstate(*seed), 4000},
		} {
			tb, err := tickBenchRun(ctx, tc.cfg, tc.ticks)
			if err != nil {
				log.Fatal(err)
			}
			bo.TickBench = append(bo.TickBench, tb)
			fmt.Printf("slbench: tick engine %q (%d regions, %d ticks):", tb.Estate, tb.Regions, tb.Ticks)
			for _, run := range tb.Runs {
				fmt.Printf(" x%d %.0f ticks/s (%.2fx)", run.Workers, run.TicksPerSec, run.Speedup)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(bo, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slbench: wrote metrics JSON to %s\n", *jsonOut)
	}
	if *baseline != "" {
		if err := compareBaseline(bo, *baseline, *tol, *wallTol, *allocTol); err != nil {
			log.Fatalf("slbench: baseline regression: %v", err)
		}
		fmt.Printf("slbench: metrics within tolerance of baseline %s\n", *baseline)
	}

	if *land != "" {
		// The paper report and figures need all three lands.
		return
	}

	rep, err := experiment.BuildReport(runs)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fails := rep.Failures()
	fmt.Printf("\nslbench: %d/%d rows within tolerance\n\n", len(rep.Rows)-len(fails), len(rep.Rows))

	figs, err := experiment.Figures(runs)
	if err != nil {
		log.Fatal(err)
	}
	if *ascii {
		for _, fig := range figs {
			if err := fig.RenderASCII(os.Stdout, 72, 14); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, fig := range figs {
			f, err := os.Create(filepath.Join(*out, fig.ID+".csv"))
			if err != nil {
				log.Fatal(err)
			}
			if err := fig.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
		fmt.Printf("slbench: wrote %d figure CSVs to %s\n", len(figs), *out)
	}
}
