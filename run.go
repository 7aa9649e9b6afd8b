package slmob

import (
	"context"
	"fmt"
	"time"

	"slmob/internal/core"
	"slmob/internal/fanout"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Streaming pipeline types, re-exported for downstream use.
type (
	// SnapshotSource is the streaming producer interface: anything that
	// yields τ-sampled snapshots — the in-process simulation, the TCP
	// crawler, the sensor collector, or a trace file.
	SnapshotSource = trace.Source
	// Snapshot is one observation of every avatar on the land.
	Snapshot = trace.Snapshot
	// SourceInfo carries a source's provenance (land, τ, metadata).
	SourceInfo = trace.Info
	// Analyzer is the incremental analysis engine behind Run.
	Analyzer = core.Analyzer
	// TraceFileStream streams snapshots from a trace file.
	TraceFileStream = trace.FileStream
	// EstateSource is the multiplexed producer interface of a sharded
	// measurement: per-region snapshot streams advancing on one clock.
	EstateSource = trace.EstateSource
	// EstateTick is one shared-clock tick across every region.
	EstateTick = trace.EstateTick
	// WindowedAnalyzer rolls a stream into fixed time windows; merging
	// the windows reproduces the whole-trace Analysis bit-identically.
	WindowedAnalyzer = core.WindowedAnalyzer
	// WindowSeries is one Analysis per window, in time order.
	WindowSeries = core.WindowSeries
)

// MergeAnalyses folds a time-ordered window series (or any set of
// analyses over disjoint streams of the same land and range set) into
// one Analysis. For the complete window series of a single stream the
// result is bit-identical to the whole-trace analysis.
func MergeAnalyses(parts []*Analysis) (*Analysis, error) {
	return core.MergeAnalyses(parts)
}

// Option configures a streaming run. Options follow the functional-
// options idiom: Run(ctx, scn, WithTau(10), WithRanges(10, 80)).
type Option func(*options)

type options struct {
	tau           int64
	tauSet        bool
	land          string
	cfg           core.Config
	parallel      int
	regionWorkers int

	// Windowed analytics.
	windowFn       core.WindowFunc
	estateWindowFn func(k int64, w *EstateAnalysis)

	// Checkpoint/resume.
	ckptPath  string
	ckptEvery int64
	resume    string

	// Live-service options (ServeEstate / AnalyzeEstateLive).
	warp          float64
	tickEvery     time.Duration
	serveAddr     string
	servePassword string
	holdClock     bool
	queryAddr     string
	aoiRadius     float64
}

func buildOptions(opts []Option) options {
	o := options{tau: PaperTau}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTau sets the snapshot period in simulated seconds (default: the
// paper's 10 s). It overrides a source's own period in AnalyzeStream.
func WithTau(tau int64) Option {
	return func(o *options) { o.tau = tau; o.tauSet = true }
}

// WithRanges sets the communication ranges to analyse (default: the
// paper's 10 m and 80 m).
func WithRanges(ranges ...float64) Option {
	return func(o *options) { o.cfg.Ranges = append([]float64(nil), ranges...) }
}

// WithZoneSize sets the zone-occupation cell edge (default: 20 m).
func WithZoneSize(metres float64) Option {
	return func(o *options) { o.cfg.ZoneSize = metres }
}

// WithMoveEps sets the minimum displacement counted as movement
// (default: 0.5 m).
func WithMoveEps(metres float64) Option {
	return func(o *options) { o.cfg.MoveEps = metres }
}

// WithSessionGap sets the absence tolerance before a session splits
// (default: 2τ).
func WithSessionGap(seconds int64) Option {
	return func(o *options) { o.cfg.SessionGap = seconds }
}

// WithLandSize sets the modelled land edge for zone occupation. Run
// defaults it to the scenario's land; AnalyzeStream reads the source's
// "size" metadata, falling back to the Second Life standard 256 m.
func WithLandSize(metres float64) Option {
	return func(o *options) { o.cfg.LandSize = metres }
}

// WithSeatedRepair treats {0,0,0} positions as seated — the Second Life
// quirk — before spatial analysis. Enable for wire-protocol sources
// (crawler, sensors), which cannot observe the seated state directly.
func WithSeatedRepair() Option {
	return func(o *options) { o.cfg.TreatZeroAsSeated = true }
}

// WithLand labels the analysis with a land name when the source does not
// describe itself.
func WithLand(name string) Option {
	return func(o *options) { o.land = name }
}

// WithParallelLands bounds how many lands RunLands simulates concurrently
// (default: all of them).
func WithParallelLands(n int) Option {
	return func(o *options) { o.parallel = n }
}

// WithRegionWorkers bounds how many regions RunEstate and
// AnalyzeEstateStream analyse concurrently. The default (0) selects
// min(regions, GOMAXPROCS); 1 degenerates to sequential per-region
// analysis. The worker count never changes results, only wall time.
func WithRegionWorkers(n int) Option {
	return func(o *options) { o.regionWorkers = n }
}

// WithRangeWorkers fans each snapshot's independent communication-range
// passes (proximity graph, contact tracking, line-of-sight metrics) out
// across n persistent workers inside every analyzer. The default (0 or
// 1) processes ranges sequentially. In an estate run this composes with
// WithRegionWorkers: every regional analyzer fans its ranges out the
// same way. The worker count never changes results, only wall time.
func WithRangeWorkers(n int) Option {
	return func(o *options) { o.cfg.RangeWorkers = n }
}

// WithWarp sets a served estate's clock rate in simulated seconds per
// wall-clock second (default 600: a full day in 144 wall seconds).
func WithWarp(warp float64) Option {
	return func(o *options) { o.warp = warp }
}

// WithTickEvery sets a served estate's wall-clock advance interval
// (default 10 ms). Smaller intervals smooth the clock under very high
// warp at the cost of scheduler churn.
func WithTickEvery(d time.Duration) Option {
	return func(o *options) { o.tickEvery = d }
}

// WithServeAddr pins the directory endpoint's listen address for
// ServeEstate (default: a free loopback port).
func WithServeAddr(addr string) Option {
	return func(o *options) { o.serveAddr = addr }
}

// WithServePassword protects a served estate: avatar logins and observer
// monitors both authenticate with it.
func WithServePassword(password string) Option {
	return func(o *options) { o.servePassword = password }
}

// WithHeldClock starts a served estate with its shared clock held at
// zero until a monitor (or an explicit StartClock) releases it, so the
// measurement can observe the grid from its very first tick.
func WithHeldClock() Option {
	return func(o *options) { o.holdClock = true }
}

// WithAOIRadius imposes a default area-of-interest radius (in metres) on
// every avatar map subscription of a served estate that did not request
// its own: pushed maps carry only entities within the radius of the
// session's avatar. Observer sessions — the measurement path — are
// always exempt and keep receiving the whole land at full resolution.
func WithAOIRadius(metres float64) Option {
	return func(o *options) { o.aoiRadius = metres }
}

// WithQueryAddr enables a served estate's live analytics query endpoint
// at the given listen address ("127.0.0.1:0" picks a free port; see
// EstateService.QueryAddr). The service runs the full sharded analysis
// beside the simulation and serves per-window and cumulative Analysis
// snapshots to any number of concurrent readers — see QueryLive and
// DialQuery. WithWindow sets the analysis window (default: hourly);
// WithTau the sampling period; the other analysis options (ranges,
// zones, session gap) configure the pipeline as usual.
func WithQueryAddr(addr string) Option {
	return func(o *options) { o.queryAddr = addr }
}

// WithAnalysisConfig replaces the whole analysis configuration at once,
// for settings without a dedicated option.
func WithAnalysisConfig(cfg AnalysisConfig) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithWindow slices the measurement into fixed windows of the given
// length in simulated seconds, aligned to absolute time (3600 gives
// clock-aligned hourly windows). RunWindows and AnalyzeWindows require
// it; RunEstate, AnalyzeEstateStream, and AnalyzeEstateLive populate the
// result's Windows series when it is set. Merging all windows of a
// stream reproduces the whole-trace analysis bit-identically.
func WithWindow(seconds int64) Option {
	return func(o *options) { o.cfg.Window = seconds }
}

// WithWindowFunc streams completed windows to fn while a windowed
// single-land run is still consuming. The *Analysis handed to fn is
// transient — its accumulators are recycled for the next window (the
// allocation-free rollover path); Clone it to retain. With a hook set,
// RunWindows/AnalyzeWindows return a series with nil Windows.
func WithWindowFunc(fn func(k int64, an *Analysis)) Option {
	return func(o *options) { o.windowFn = fn }
}

// WithEstateWindowFunc streams completed estate windows to fn while a
// windowed estate run (WithWindow) is still consuming — the live
// per-window exposure of a served estate. Unlike the single-land hook,
// the delivered values are retained: they are the same objects returned
// in EstateAnalysis.Windows.
func WithEstateWindowFunc(fn func(k int64, w *EstateAnalysis)) Option {
	return func(o *options) { o.estateWindowFn = fn }
}

// WithCheckpointEvery writes a crash-safe checkpoint of the full
// pipeline state — analyzer, and for checkpointable sources (in-process
// simulations) the world state too, rng streams included — to path
// every `every` simulated seconds, atomically (write-then-rename). A run
// killed between checkpoints resumes from the file with WithResumeFrom
// and finishes with a digest identical to an uninterrupted run.
// Supported by Run, AnalyzeStream, RunWindows, and AnalyzeWindows.
func WithCheckpointEvery(path string, every int64) Option {
	return func(o *options) { o.ckptPath = path; o.ckptEvery = every }
}

// WithResumeFrom restores the pipeline from a checkpoint file before
// consuming. The analyzer's configuration (land, τ, ranges, windows)
// comes from the checkpoint; analysis options passed alongside are
// ignored. If the checkpoint carries source state and the source
// supports restoration, the source fast-forwards; otherwise the source
// replays from the start and the analyzer skips the already-observed
// prefix by snapshot time.
func WithResumeFrom(path string) Option {
	return func(o *options) { o.resume = path }
}

// Run simulates the scenario and analyses it as one streaming pipeline:
// snapshots flow from the in-process simulation straight into the
// incremental analyzer. Pipeline state stays O(avatars + contact pairs)
// — the trace is never materialised — though the result distributions of
// the returned Analysis (contact samples, degree samples, zone counts)
// still accumulate with measurement length, as they must.
//
// Run honours ctx: cancellation stops the simulation mid-stream and
// returns ctx.Err().
func Run(ctx context.Context, scn Scenario, opts ...Option) (*Analysis, error) {
	o := buildOptions(opts)
	src, err := world.NewSource(scn, o.tau)
	if err != nil {
		return nil, err
	}
	var a *core.Analyzer
	if o.resume != "" {
		if a, err = resumeAnalyzer(o, src); err != nil {
			return nil, err
		}
	} else {
		cfg := o.cfg
		if cfg.LandSize == 0 {
			cfg.LandSize = scn.Land.Size
		}
		if a, err = core.NewAnalyzer(scn.Land.Name, o.tau, cfg); err != nil {
			return nil, err
		}
	}
	return runAnalyzer(ctx, a, src, o)
}

// RunWindows is Run with windowed analytics: the measurement is sliced
// into WithWindow-sized absolute-time windows and one Analysis per
// window is returned. Merging the series (WindowSeries.Merge) reproduces
// the Run result bit-identically. With WithWindowFunc the windows stream
// to the hook instead of being collected.
func RunWindows(ctx context.Context, scn Scenario, opts ...Option) (*WindowSeries, error) {
	o := buildOptions(opts)
	src, err := world.NewSource(scn, o.tau)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	if cfg.LandSize == 0 {
		cfg.LandSize = scn.Land.Size
	}
	return consumeWindowed(ctx, src, scn.Land.Name, o.tau, cfg, o)
}

// AnalyzeWindows is AnalyzeStream with windowed analytics, over any
// snapshot source.
func AnalyzeWindows(ctx context.Context, src SnapshotSource, opts ...Option) (*WindowSeries, error) {
	o := buildOptions(opts)
	land, tau, cfg, err := describeStream(src, o)
	if err != nil {
		return nil, err
	}
	return consumeWindowed(ctx, src, land, tau, cfg, o)
}

// consumeWindowed builds (or resumes) the windowed analyzer and drives
// it under the run options.
func consumeWindowed(ctx context.Context, src SnapshotSource, land string, tau int64, cfg core.Config, o options) (*WindowSeries, error) {
	var wa *core.WindowedAnalyzer
	var err error
	if o.resume != "" {
		if wa, err = resumeWindowedAnalyzer(o, src); err != nil {
			return nil, err
		}
	} else {
		if cfg.Window <= 0 {
			return nil, fmt.Errorf("slmob: windowed analysis needs WithWindow")
		}
		if wa, err = core.NewWindowedAnalyzer(land, tau, cfg.Window, cfg); err != nil {
			return nil, err
		}
	}
	if o.windowFn != nil {
		wa.OnWindow(o.windowFn)
	} else if wa.RequiresHook() {
		return nil, fmt.Errorf("slmob: %s was checkpointed with a window hook; pass WithWindowFunc to resume it", o.resume)
	}
	return runWindowedAnalyzer(ctx, wa, src, o)
}

// RunEstate simulates a multi-region estate and analyses it as one
// sharded streaming pipeline: every region runs a full incremental
// analysis on a parallel worker (bounded by WithRegionWorkers), while
// the estate-global pass — whose contact metrics stay correct for pairs
// that meet across region borders or whose contact spans a handoff —
// overlaps on the calling goroutine. A 1×1 estate reproduces the Run
// pipeline exactly.
func RunEstate(ctx context.Context, est Estate, opts ...Option) (*EstateAnalysis, error) {
	o := buildOptions(opts)
	src, err := world.NewEstateSource(est, o.tau)
	if err != nil {
		return nil, err
	}
	metas := make([]core.RegionMeta, len(est.Regions))
	for i, scn := range est.Regions {
		metas[i] = core.RegionMeta{
			Name:   scn.Land.Name,
			Origin: est.RegionOrigin(i),
			Size:   scn.Land.Size,
		}
	}
	ea, err := core.NewEstateAnalyzer(est.Name, metas, o.tau, o.cfg, o.regionWorkers)
	if err != nil {
		return nil, err
	}
	if o.estateWindowFn != nil {
		if err := ea.OnWindow(o.estateWindowFn); err != nil {
			return nil, err
		}
	}
	return ea.Consume(ctx, src)
}

// AnalyzeEstateStream runs the sharded incremental analysis over any
// estate source — a live estate simulation or a set of per-region trace
// files zipped by OpenEstateTraceStream. Region identities, placements,
// and sizes come from the source's provenance; WithLand labels the
// estate-global result.
func AnalyzeEstateStream(ctx context.Context, es EstateSource, opts ...Option) (*EstateAnalysis, error) {
	o := buildOptions(opts)
	metas, err := core.RegionMetasFromInfos(es.Regions())
	if err != nil {
		return nil, err
	}
	estate := o.land
	if estate == "" {
		for _, info := range es.Regions() {
			if estate = info.Meta["estate"]; estate != "" {
				break
			}
		}
	}
	if estate == "" {
		estate = "estate"
	}
	tau := o.tau
	if !o.tauSet {
		if infos := es.Regions(); len(infos) > 0 && infos[0].Tau > 0 {
			tau = infos[0].Tau
		}
	}
	ea, err := core.NewEstateAnalyzer(estate, metas, tau, o.cfg, o.regionWorkers)
	if err != nil {
		return nil, err
	}
	if o.estateWindowFn != nil {
		if err := ea.OnWindow(o.estateWindowFn); err != nil {
			return nil, err
		}
	}
	return ea.Consume(ctx, es)
}

// RunLands runs the scenarios as independent streaming pipelines, at most
// WithParallelLands at a time (default: all), and returns one Analysis
// per scenario in input order. The first failure cancels the rest and is
// reported as the root cause.
func RunLands(ctx context.Context, scns []Scenario, opts ...Option) ([]*Analysis, error) {
	o := buildOptions(opts)
	return fanout.Run(ctx, len(scns), o.parallel,
		func(ctx context.Context, i int) (*Analysis, error) {
			an, err := Run(ctx, scns[i], opts...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", scns[i].Land.Name, err)
			}
			return an, nil
		})
}

// describeStream resolves the analysis labelling from a self-describing
// source, with explicit options winning.
func describeStream(src SnapshotSource, o options) (string, int64, core.Config, error) {
	land, tau, cfg := o.land, o.tau, o.cfg
	if d, ok := src.(trace.Described); ok {
		info := d.Info()
		if land == "" {
			land = info.Land
		}
		if !o.tauSet && info.Tau > 0 {
			tau = info.Tau
		}
		if cfg.LandSize == 0 {
			size, err := info.Size()
			if err != nil {
				return "", 0, cfg, err
			}
			cfg.LandSize = size
		}
	}
	return land, tau, cfg, nil
}

// AnalyzeStream runs the incremental analysis over any snapshot source —
// a crawler mid-flight, a sensor collector, a replayed trace file. When
// the source describes itself (trace.Described), its land, period, and
// size metadata label the analysis; explicit options win.
func AnalyzeStream(ctx context.Context, src SnapshotSource, opts ...Option) (*Analysis, error) {
	o := buildOptions(opts)
	var a *core.Analyzer
	var err error
	if o.resume != "" {
		if a, err = resumeAnalyzer(o, src); err != nil {
			return nil, err
		}
	} else {
		land, tau, cfg, derr := describeStream(src, o)
		if derr != nil {
			return nil, derr
		}
		if a, err = core.NewAnalyzer(land, tau, cfg); err != nil {
			return nil, err
		}
	}
	return runAnalyzer(ctx, a, src, o)
}

// NewSource returns a streaming source over a fresh in-process simulation
// of the scenario, one snapshot every tau seconds.
func NewSource(scn Scenario, tau int64) (SnapshotSource, error) {
	return world.NewSource(scn, tau)
}

// NewEstateSource returns a multiplexed streaming source over a fresh
// in-process estate simulation: one tick of per-region snapshots every
// tau seconds on the estate's shared clock.
func NewEstateSource(est Estate, tau int64) (*world.EstateSource, error) {
	return world.NewEstateSource(est, tau)
}

// OpenEstateTraceStream zips one trace file per region into an estate
// source for AnalyzeEstateStream; all files must share the estate's
// snapshot timeline. Close it when done.
func OpenEstateTraceStream(paths ...string) (*trace.EstateFileStream, error) {
	return trace.OpenEstateStream(paths...)
}

// CollectEstateSource drains an estate source into one materialised
// trace per region — the bridge to the per-region file writers.
func CollectEstateSource(ctx context.Context, es EstateSource) ([]*Trace, error) {
	return trace.CollectEstate(ctx, es)
}

// TraceSource returns a streaming view of an in-memory trace.
func TraceSource(tr *Trace) SnapshotSource {
	return tr.Source()
}

// OpenTraceStream opens a trace file for constant-memory streaming,
// selecting the codec by extension like ReadTraceFile. Close it when
// done.
func OpenTraceStream(path string) (*TraceFileStream, error) {
	return trace.OpenStream(path)
}

// CollectSource drains a source into a materialised trace — the bridge
// to batch-only consumers such as the DTN replayer and the file writers.
// Self-describing sources label the trace themselves; for a custom
// SnapshotSource, supply WithLand and WithTau (an unlabelled source
// falls back to the paper's τ so the trace is always valid).
func CollectSource(ctx context.Context, src SnapshotSource, opts ...Option) (*Trace, error) {
	o := buildOptions(opts)
	var tau int64
	if o.tauSet {
		tau = o.tau
	}
	tr, err := trace.Collect(ctx, src, o.land, tau)
	if tr != nil && tr.Tau <= 0 {
		tr.Tau = o.tau
	}
	return tr, err
}

// ReadTraceFile reads a trace from disk (".csv" for CSV, anything else
// for the compact binary format).
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// WriteTraceFile writes a trace to disk, selecting the codec the same
// way.
func WriteTraceFile(tr *Trace, path string) error { return trace.WriteFile(tr, path) }
