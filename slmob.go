// Package slmob is a from-scratch Go reproduction of "Characterizing User
// Mobility in Second Life" (La & Michiardi, SIGCOMM WOSN 2008): a
// metaverse simulator standing in for the 2008 Second Life service, the
// paper's two monitoring architectures (in-world sensors and an external
// crawler speaking a coarse-map wire protocol), the full temporal /
// spatial / graph-theoretic analysis behind every figure in the paper,
// and the trace-driven DTN replay the paper motivates.
//
// This package is the high-level façade. The primary API is the
// streaming pipeline: snapshots flow from a SnapshotSource (in-process
// simulation, TCP crawler, sensor collector, or trace file) into the
// incremental analyzer under a context, without ever materialising the
// trace. Typical use:
//
//	scn := slmob.ApfelLand(42)
//	scn.Duration = 6 * 3600
//	an, err := slmob.Run(ctx, scn, slmob.WithTau(10), slmob.WithRanges(10, 80))
//	fmt.Println(an.Summary, an.Contacts[slmob.BluetoothRange].CT.Median())
//
// Any other source analyses the same way:
//
//	fs, err := slmob.OpenTraceStream("dance.sltr")
//	an, err := slmob.AnalyzeStream(ctx, fs, slmob.WithSeatedRepair())
//
// Beyond single lands, the world shards into multi-region estates —
// grids of 256 m regions joined by walkable borders and teleports, as in
// the live service — analysed region-parallel with estate-global contact
// correctness across handoffs:
//
//	res, err := slmob.RunEstate(ctx, slmob.PaperEstate(42), slmob.WithRegionWorkers(4))
//	fmt.Println(res.Global.Summary, res.Regions[1].Summary)
//
// Every metric accumulator is resettable, mergeable, and serializable
// (the core Accumulator contract), which buys two orthogonal features.
// Windowed analytics slice any measurement into fixed time-of-day
// windows whose merge reproduces the whole-trace result bit-identically:
//
//	ws, err := slmob.RunWindows(ctx, scn, slmob.WithWindow(3600))
//	whole, err := ws.Merge() // == slmob.Run(ctx, scn), exactly
//
// And checkpoint/resume makes long runs crash-safe — the analyzer state
// and, for simulation sources, the full world state (avatar rng streams
// included) snapshot to one file, and a killed run resumes to an
// identical digest:
//
//	an, err := slmob.Run(ctx, scn, slmob.WithCheckpointEvery("run.ckpt", 1800))
//	an, err = slmob.Run(ctx, scn, slmob.WithResumeFrom("run.ckpt"))
//
// The batch entry points (CollectTrace, Analyze) remain as thin wrappers
// for workloads that genuinely need the materialised trace, such as the
// DTN replayer.
//
// The subsystems live in internal packages; everything a downstream user
// needs is re-exported here. DESIGN.md documents the architecture, the
// streaming pipeline, and the per-experiment index; BuildReport (and
// TestCalibrationReport in internal/experiment, run with -v) prints the
// paper-vs-measured values.
package slmob

import (
	"context"
	"math"

	"slmob/internal/core"
	"slmob/internal/dtn"
	"slmob/internal/experiment"
	"slmob/internal/stats"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Measurement constants of the paper (§3).
const (
	// PaperTau is the snapshot period in seconds.
	PaperTau = core.PaperTau
	// BluetoothRange and WiFiRange are the two communication ranges.
	BluetoothRange = core.BluetoothRange
	WiFiRange      = core.WiFiRange
	// ZoneLength is the zone-occupation cell edge (Fig. 3).
	ZoneLength = core.PaperZoneLength
	// Day is the paper's 24-hour measurement duration in seconds.
	Day = world.DayDuration
)

// Re-exported core types.
type (
	// Scenario fully describes one land simulation.
	Scenario = world.Scenario
	// Estate describes a multi-region grid of lands with border crossing
	// and teleports — the sharded world RunEstate simulates.
	Estate = world.EstateConfig
	// EstateAnalysis holds per-region plus estate-global results.
	EstateAnalysis = core.EstateAnalysis
	// Trace is a τ-sampled mobility trace of one land.
	Trace = trace.Trace
	// Analysis holds every per-land metric of the paper.
	Analysis = core.Analysis
	// AnalysisConfig tunes the analysis pipeline.
	AnalysisConfig = core.Config
	// ContactSet holds CT/ICT/FT distributions for one range.
	ContactSet = core.ContactSet
	// Dist is a weighted empirical distribution — the representation of
	// every integer-valued metric (contact times, degrees, diameters,
	// zone occupancy). It answers Median/Quantile/CDF/CCDF queries
	// directly and Values() materialises the raw sample when needed.
	Dist = stats.Weighted
	// Figure is plot-ready data for one paper panel.
	Figure = core.Figure
	// LandRun bundles scenario, trace and analysis for one land.
	LandRun = experiment.LandRun
	// Report compares measured values against the paper.
	Report = experiment.Report
	// DTNConfig controls a trace-driven DTN replay.
	DTNConfig = dtn.Config
	// DTNResult summarises a DTN replay.
	DTNResult = dtn.Result
)

// The three calibrated paper lands and the synthetic-mobility baselines.
var (
	// ApfelLand is the out-door German newbie arena.
	ApfelLand = world.ApfelLand
	// DanceIsland is the in-door virtual discotheque.
	DanceIsland = world.DanceIsland
	// IsleOfView is the St. Valentine's event land.
	IsleOfView = world.IsleOfView
	// PaperLands returns all three, in the paper's order.
	PaperLands = world.PaperLands
	// PaperEstate joins the three paper lands into a 1×3 estate.
	PaperEstate = world.PaperEstate
	// MainlandEstate is the 4×4 sharding stress preset.
	MainlandEstate = world.MainlandEstate
	// CityEstate is the 8×8 city-scale stress preset (~2,400 concurrent
	// avatars) that the P4 benchmarks drive.
	CityEstate = world.CityEstate
	// SingleRegionEstate wraps one scenario as a 1×1 estate, which
	// reproduces the single-land pipeline exactly.
	SingleRegionEstate = world.SingleRegionEstate
	// BaselineScenario builds a random-waypoint or Lévy-walk comparison
	// scenario (experiment X3).
	BaselineScenario = world.BaselineScenario
)

// Mobility model identifiers for BaselineScenario.
const (
	POIGravity     = world.POIGravity
	RandomWaypoint = world.RandomWaypoint
	LevyWalk       = world.LevyWalk
)

// DTN forwarding schemes for Replay.
const (
	Epidemic       = dtn.Epidemic
	DirectDelivery = dtn.Direct
	TwoHopRelay    = dtn.TwoHop
	SprayAndWait   = dtn.SprayAndWait
)

// CollectTrace simulates the scenario and samples avatar positions every
// tau seconds, in process, materialising the whole trace. The network
// path — cmd/slsim plus cmd/slcrawl — produces equivalent traces over
// TCP.
//
// Deprecated: use Run for analysis (it streams in constant memory), or
// NewSource + CollectSource when the materialised trace itself is needed.
func CollectTrace(scn Scenario, tau int64) (*Trace, error) {
	return world.Collect(scn, tau)
}

// Analyze runs the paper's full analysis with default parameters
// (r ∈ {10, 80}, L = 20 m), re-walking the trace once per metric.
//
// Deprecated: use Run (simulation) or AnalyzeStream (any source) — the
// streaming pipeline computes the same Analysis in a single pass.
func Analyze(tr *Trace) (*Analysis, error) {
	return core.Analyze(tr, core.Config{})
}

// AnalyzeWith runs the analysis with explicit configuration.
//
// Deprecated: use AnalyzeStream with options (WithRanges, WithZoneSize,
// WithSeatedRepair, ...) over TraceSource(tr).
func AnalyzeWith(tr *Trace, cfg AnalysisConfig) (*Analysis, error) {
	return core.Analyze(tr, cfg)
}

// RunPaperLands simulates and analyses all three target lands for the
// given duration (use Day for the paper's 24 h).
//
// Deprecated: use RunPaperLandsContext, which streams and honours
// cancellation — or RunLands over PaperLands scenarios when option
// control (WithParallelLands, WithRanges, ...) is needed.
func RunPaperLands(seed uint64, duration int64) ([]*LandRun, error) {
	return experiment.RunLands(context.Background(), seed, duration, PaperTau)
}

// RunPaperLandsContext simulates and analyses the three target lands as
// concurrent streaming pipelines under a context.
func RunPaperLandsContext(ctx context.Context, seed uint64, duration int64) ([]*LandRun, error) {
	return experiment.RunLands(ctx, seed, duration, PaperTau)
}

// BuildReport compares three land runs against the paper's published
// values, row by row; TestCalibrationReport in internal/experiment prints
// the table for a full 24 h run with -v.
func BuildReport(runs []*LandRun) (*Report, error) {
	return experiment.BuildReport(runs)
}

// BuildFigures renders every figure panel of the paper from three land
// runs.
func BuildFigures(runs []*LandRun) ([]*Figure, error) {
	return experiment.Figures(runs)
}

// Replay runs a DTN forwarding scheme over a trace.
func Replay(tr *Trace, cfg DTNConfig) (*DTNResult, error) {
	return dtn.Replay(tr, cfg)
}

// CompareDTN replays the trace under all four forwarding schemes.
func CompareDTN(tr *Trace, r float64, messages int, seed uint64) ([]*DTNResult, error) {
	return dtn.CompareProtocols(tr, r, messages, seed)
}

// Median is a convenience for summarising metric samples; it returns NaN
// for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.MustEmpirical(xs).Median()
}

// Quantile returns the p-quantile of a sample, NaN when empty.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.MustEmpirical(xs).Quantile(p)
}
