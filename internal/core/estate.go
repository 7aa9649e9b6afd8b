package core

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"slmob/internal/fanout"
	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/stats"
	"slmob/internal/trace"
)

// RegionMeta locates one region stream within an estate: its name labels
// the per-region Analysis, its origin re-bases local positions into
// estate-global coordinates for the cross-border contact analysis, and
// its size drives the per-region zone grid (0 selects the 256 m
// standard).
type RegionMeta struct {
	Name   string
	Origin geom.Vec
	Size   float64
}

// RegionMetasFromInfos derives region placements from an estate source's
// provenance, preferring the Region identity over the land name. A
// malformed size in the metadata is a decode error.
func RegionMetasFromInfos(infos []trace.Info) ([]RegionMeta, error) {
	metas := make([]RegionMeta, len(infos))
	for i, info := range infos {
		name := info.Region
		if name == "" {
			name = info.Land
		}
		size, err := info.Size()
		if err != nil {
			return nil, fmt.Errorf("core: region %d: %w", i, err)
		}
		metas[i] = RegionMeta{Name: name, Origin: info.Origin, Size: size}
	}
	return metas, nil
}

// EstateAnalysis is the two-level result of a sharded measurement:
// one full Analysis per region plus the estate-global view — and, when
// the analysis ran windowed (Config.Window > 0), the per-window time
// series.
//
// The global Analysis is computed in estate coordinates, so its contact
// metrics stay correct for pairs that meet across a region border or
// whose contact spans a handoff — the cases no per-region analyzer can
// see whole. Its Trips likewise sessionise avatars across handoffs
// (an avatar walking into the next region keeps one session), and its
// Zones concatenate the per-region cell occupancies. Global Nets is nil:
// line-of-sight network structure (diameter, clustering) is reported per
// region, because computing it estate-wide would rebuild the full
// cross-region graph every snapshot and defeat the sharding.
type EstateAnalysis struct {
	Estate string
	Global *Analysis
	// Regions holds one Analysis per region, in the estate's index order.
	Regions []*Analysis

	// WindowSec and FirstWindow describe the window series of a windowed
	// run: Windows[i] covers [(FirstWindow+i)·WindowSec,
	// (FirstWindow+i+1)·WindowSec). All three are zero/nil for
	// whole-trace runs. Each window is itself a two-level EstateAnalysis
	// (with nil Windows); merging the series reproduces the whole-run
	// Global and Regions bit-identically.
	WindowSec   int64
	FirstWindow int64
	Windows     []*EstateAnalysis
}

// EstateAnalyzer runs a sharded incremental analysis: one full Analyzer
// per region, dispatched onto parallel workers, plus estate-global
// contact / trip / population tracking over the merged tick. Feed it
// with Consume exactly once.
type EstateAnalyzer struct {
	estate  string
	tau     int64
	cfg     Config
	workers int

	regions  []RegionMeta
	regional []*Analyzer
	// globalWS holds one persistent graph workspace per communication
	// range for the estate-global contact stages, so the cross-region
	// proximity graph is patched incrementally across ticks. Each stage
	// goroutine exclusively owns its range's workspace during Consume.
	globalWS []*graph.Workspace

	consumed bool

	// Estate-global accumulators, all keyed by the globally unique
	// avatar IDs the estate simulation (or a well-formed file set)
	// guarantees.
	snapshots     int
	firstT, lastT int64
	totalSamples  int
	maxConcurrent int
	firstSeen     map[trace.AvatarID]int64
	contacts      []*contactTracker
	trips         *tripTracker
	closed        []closedSession

	// Per-tick scratch.
	dup map[trace.AvatarID]struct{}

	// Windowed analytics (cfg.Window > 0); nil otherwise. winEmitted
	// counts windows already delivered to the live hook (feed-owned).
	win        *estateWindows
	winEmitted int
}

// globalTick is the merged, estate-coordinate view of one tick, handed
// to the per-range global contact trackers. The slices are freshly
// allocated per tick and read-only downstream, so every range tracker
// can consume the same value concurrently. fsT carries each avatar's
// first-seen time (aligned with ids) so the trackers can emit
// first-contact waits without touching the feed-owned firstSeen map.
type globalTick struct {
	t     int64
	first bool
	ids   []trace.AvatarID
	pos   []geom.Vec
	fsT   []int64
	// gids mirrors ids as raw uint64s for the incremental graph builder.
	gids []uint64
}

// NewEstateAnalyzer builds the analyzer for an estate of the given
// regions, sampled every tau seconds. Zero cfg fields select the paper's
// parameters; a zero cfg.LandSize adopts each region's own size for its
// zone grid. workers bounds how many regions are analysed concurrently:
// 0 selects min(regions, GOMAXPROCS), 1 degenerates to sequential
// per-region analysis.
func NewEstateAnalyzer(estate string, regions []RegionMeta, tau int64, cfg Config, workers int) (*EstateAnalyzer, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: estate %q has no regions", estate)
	}
	perRegionSize := cfg.LandSize == 0
	base := cfg.withDefaults(tau)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(regions) {
		workers = len(regions)
	}
	ea := &EstateAnalyzer{
		estate:    estate,
		tau:       tau,
		cfg:       base,
		workers:   workers,
		regions:   regions,
		firstSeen: make(map[trace.AvatarID]int64),
		dup:       make(map[trace.AvatarID]struct{}),
	}
	ea.trips = newTripTracker(base.MoveEps, base.SessionGap, &ea.closed)
	for _, rm := range regions {
		rc := base
		if perRegionSize && rm.Size > 0 {
			rc.LandSize = rm.Size
		}
		a, err := NewAnalyzer(rm.Name, tau, rc)
		if err != nil {
			return nil, err
		}
		ea.regional = append(ea.regional, a)
	}
	// NewAnalyzer above has already vetted tau and the ranges.
	for _, r := range base.Ranges {
		ct := newContactTracker(tau)
		ct.bind(newContactSet(r, tau))
		ea.contacts = append(ea.contacts, ct)
		ea.globalWS = append(ea.globalWS, graph.NewWorkspace())
	}
	if base.Window > 0 {
		ea.initWindows()
	}
	return ea, nil
}

// observeTick folds one estate tick into the cheap global accumulators —
// merged population counts, first appearances, cross-region trip
// sessionisation — and assembles the estate-coordinate view handed to
// the per-range contact trackers running on their own pipeline stages.
func (ea *EstateAnalyzer) observeTick(tick trace.EstateTick) (globalTick, error) {
	if len(tick.Regions) != len(ea.regions) {
		return globalTick{}, fmt.Errorf("core: tick has %d regions, want %d", len(tick.Regions), len(ea.regions))
	}
	t := tick.T
	if ea.snapshots > 0 && t <= ea.lastT {
		return globalTick{}, fmt.Errorf("core: invalid estate stream: tick at t=%d not after t=%d", t, ea.lastT)
	}
	if ea.snapshots == 0 {
		ea.firstT = t
	}
	ea.lastT = t
	ea.snapshots++

	var fw *feedSink
	if ea.win != nil {
		// Bounding the window gap here covers every stage: all of them
		// (regional windowed analyzers, range trackers) see exactly the
		// ticks the feed has validated.
		if k := t / ea.win.w; ea.win.feedStarted && k-ea.win.feedIdx > maxWindowGap {
			return globalTick{}, fmt.Errorf("core: tick at t=%d skips %d windows (max %d) — corrupt timestamp?",
				t, k-ea.win.feedIdx, maxWindowGap)
		}
		fw = ea.win.feedRollover(t, ea.trips)
		if fw.snapshots == 0 {
			fw.start = t
		}
		fw.end = t
		fw.snapshots++
	}

	clear(ea.dup)
	gt := globalTick{t: t, first: t == ea.firstT}
	n := 0
	for ri, snap := range tick.Regions {
		if snap.T != t {
			return globalTick{}, fmt.Errorf("core: invalid estate stream: region %d at t=%d in tick t=%d", ri, snap.T, t)
		}
		origin := ea.regions[ri].Origin
		for _, s := range snap.Samples {
			if _, dup := ea.dup[s.ID]; dup {
				return globalTick{}, fmt.Errorf("core: invalid estate stream: avatar %d in two regions at t=%d", s.ID, t)
			}
			ea.dup[s.ID] = struct{}{}
			n++
			fs, ok := ea.firstSeen[s.ID]
			if !ok {
				fs = t
				ea.firstSeen[s.ID] = t
				if fw != nil {
					fw.newUsers++
				}
			}
			// The {0,0,0} sitting sentinel is a local coordinate: repair
			// before re-basing into estate coordinates.
			seated := s.Seated || (ea.cfg.TreatZeroAsSeated && s.Pos.IsZero())
			gpos := s.Pos.Add(origin)
			ea.trips.observe(s.ID, gpos, seated, t)
			if seated {
				continue
			}
			gt.ids = append(gt.ids, s.ID)
			gt.pos = append(gt.pos, gpos)
			gt.fsT = append(gt.fsT, fs)
			gt.gids = append(gt.gids, uint64(s.ID))
		}
	}
	ea.totalSamples += n
	if n > ea.maxConcurrent {
		ea.maxConcurrent = n
	}
	if fw != nil {
		fw.totalSamples += n
		if n > fw.maxConcurrent {
			fw.maxConcurrent = n
		}
	}
	return gt, nil
}

// regionSnap is one region's share of a tick, queued to its worker.
type regionSnap struct {
	region int
	snap   trace.Snapshot
}

// Consume drains the estate source and returns the completed two-level
// analysis. The pipeline has three kinds of stages, all overlapping:
// the feed (caller's goroutine) validates ticks and keeps the cheap
// global accumulators; region streams are dispatched round-robin onto
// the configured workers (region i belongs to worker i mod workers, so
// each region's snapshots stay ordered); and every communication range's
// estate-global contact tracker runs on its own stage, consuming the
// merged estate-coordinate tick. It stops on the first error; a
// cancelled context surfaces as ctx.Err().
func (ea *EstateAnalyzer) Consume(ctx context.Context, es trace.EstateSource) (*EstateAnalysis, error) {
	if ea.consumed {
		return nil, fmt.Errorf("core: estate Consume called twice")
	}
	ea.consumed = true
	// Error and cancellation exits below return before finish(), so the
	// regional analyzers' Finish never runs; wind their range-fan workers
	// down here or they would leak for the life of the process. By the
	// time any return executes, closeAll+<-done has drained every stage,
	// so no regional Observe is in flight. stopFan is idempotent — the
	// success path has already stopped the fans via Finish.
	defer func() {
		for _, a := range ea.regional {
			a.stopFan()
		}
	}()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := make([]chan regionSnap, ea.workers)
	for w := range chans {
		chans[w] = make(chan regionSnap, 64)
	}
	globalChans := make([]chan globalTick, len(ea.contacts))
	for i := range globalChans {
		globalChans[i] = make(chan globalTick, 64)
	}
	closeAll := func() {
		for _, ch := range chans {
			close(ch)
		}
		for _, ch := range globalChans {
			close(ch)
		}
	}
	jobs := ea.workers + len(globalChans)
	done := make(chan error, 1)
	go func() {
		_, err := fanout.Run(wctx, jobs, jobs,
			func(ctx context.Context, j int) (struct{}, error) {
				if j >= ea.workers {
					// Global contact-tracker stage for one range, with its
					// own persistent graph workspace (stages run
					// concurrently, so workspaces cannot be shared; keeping
					// them on the analyzer lets WorkspaceStats report them
					// after the run).
					ri := j - ea.workers
					ws := ea.globalWS[ri]
					for {
						select {
						case gt, ok := <-globalChans[ri]:
							if !ok {
								return struct{}{}, nil
							}
							ea.observeGlobalRange(ri, ws, gt)
						case <-ctx.Done():
							return struct{}{}, ctx.Err()
						}
					}
				}
				// Region-analyzer stage.
				for {
					select {
					case m, ok := <-chans[j]:
						if !ok {
							return struct{}{}, nil
						}
						if err := ea.observeRegion(m.region, m.snap); err != nil {
							return struct{}{}, fmt.Errorf("region %q: %w", ea.regions[m.region].Name, err)
						}
					case <-ctx.Done():
						return struct{}{}, ctx.Err()
					}
				}
			})
		// A stage failure cancels only fanout's child context; cancel the
		// feed's context too so a mid-send feed unblocks instead of
		// filling a channel no stage drains anymore.
		cancel()
		done <- err
	}()

	fail := func(err error) (*EstateAnalysis, error) {
		closeAll()
		cancel()
		<-done // wait the stages out; the feed error is the root cause
		return nil, err
	}
	for {
		tick, err := es.NextTick(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		gt, err := ea.observeTick(tick)
		if err != nil {
			return fail(err)
		}
		stalled := false
		for i, snap := range tick.Regions {
			select {
			case chans[i%ea.workers] <- regionSnap{region: i, snap: snap}:
			case <-wctx.Done():
				stalled = true
			}
			if stalled {
				break
			}
		}
		for i := range globalChans {
			if stalled {
				break
			}
			select {
			case globalChans[i] <- gt:
			case <-wctx.Done():
				stalled = true
			}
		}
		if stalled {
			closeAll()
			if werr := <-done; werr != nil {
				return nil, werr
			}
			return nil, wctx.Err()
		}
		ea.emitReadyWindows()
	}
	closeAll()
	if err := <-done; err != nil {
		return nil, err
	}
	return ea.finish()
}

// observeRegion advances one region's analyzer — windowed when the
// estate runs windowed — on its worker goroutine.
func (ea *EstateAnalyzer) observeRegion(i int, snap trace.Snapshot) error {
	if ea.win != nil {
		return ea.win.regionW[i].Observe(snap)
	}
	return ea.regional[i].Observe(snap)
}

// observeGlobalRange advances one range's estate-global contact tracker
// on its stage goroutine, rolling its window sink when the tick crosses
// a window boundary.
func (ea *EstateAnalyzer) observeGlobalRange(i int, ws *graph.Workspace, gt globalTick) {
	ct := ea.contacts[i]
	if w := ea.win; w != nil {
		k := gt.t / w.w
		if !w.rangeStarted[i] {
			w.rangeStarted[i] = true
			w.rangeIdx[i] = k
		}
		for w.rangeIdx[i] < k {
			done := ct.cs
			w.mu.Lock()
			w.rangeDone[i] = append(w.rangeDone[i], done)
			w.mu.Unlock()
			ct.bind(newContactSet(done.Range, ea.tau))
			w.rangeIdx[i]++
		}
	}
	if ea.cfg.DisableIncremental {
		ws.FromPositions(gt.pos, ea.cfg.Ranges[i])
	} else {
		ws.ApplyPositions(gt.gids, gt.pos, ea.cfg.Ranges[i])
	}
	ct.observe(gt.ids, gt.fsT, ws, gt.t, gt.first)
}

// WorkspaceStats sums the incremental-engine counters across the whole
// estate: every regional analyzer's per-range workspaces plus the
// estate-global contact stages' workspaces. Call it after Consume has
// returned — during the run the workspaces belong to their stage
// goroutines.
func (ea *EstateAnalyzer) WorkspaceStats() graph.WorkspaceStats {
	var st graph.WorkspaceStats
	for _, a := range ea.regional {
		st.Add(a.WorkspaceStats())
	}
	for _, ws := range ea.globalWS {
		st.Add(ws.Stats())
	}
	return st
}

// buildGlobalSummary assembles the estate-global summary from the whole
// feed counters.
func (ea *EstateAnalyzer) buildGlobalSummary() trace.Summary {
	sum := trace.Summary{
		Land:          ea.estate,
		Snapshots:     ea.snapshots,
		Unique:        len(ea.firstSeen),
		MaxConcurrent: ea.maxConcurrent,
		TotalSamples:  ea.totalSamples,
	}
	if ea.snapshots >= 2 {
		sum.DurationSec = ea.lastT - ea.firstT
	}
	if ea.snapshots > 0 {
		sum.MeanConcurrent = float64(ea.totalSamples) / float64(ea.snapshots)
	}
	return sum
}

// finish completes every region analyzer and assembles the merged
// estate-global Analysis (and, in a windowed run, the window series).
func (ea *EstateAnalyzer) finish() (*EstateAnalysis, error) {
	if ea.win != nil {
		return ea.finishWindowed()
	}
	res := &EstateAnalysis{
		Estate:  ea.estate,
		Regions: make([]*Analysis, len(ea.regional)),
	}
	for i, a := range ea.regional {
		an, err := a.Finish()
		if err != nil {
			return nil, err
		}
		res.Regions[i] = an
	}

	global := &Analysis{
		Land:     ea.estate,
		Summary:  ea.buildGlobalSummary(),
		Contacts: make(map[float64]*ContactSet, len(ea.cfg.Ranges)),
	}
	if ea.snapshots > 0 {
		global.Start, global.End = ea.firstT, ea.lastT
	}
	for i, r := range ea.cfg.Ranges {
		global.Contacts[r] = ea.contacts[i].finish(len(ea.firstSeen))
	}
	global.Zones = stats.NewWeighted()
	for _, ra := range res.Regions {
		global.Zones.Merge(ra.Zones)
	}
	ea.trips.closeAll()
	global.Trips = buildTripStats(ea.closed, nil)
	res.Global = global
	return res, nil
}
