package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"slmob/internal/fanout"
	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/stats"
	"slmob/internal/trace"
)

// Analyzer is the incremental counterpart of Analyze: it consumes a
// snapshot stream one observation at a time and produces the same
// Analysis without ever holding the full trace. Per-snapshot state is
// O(avatars + contact pairs); result distributions for integer-valued
// metrics are weighted accumulators, so even they stay O(distinct
// values). At steady state — once every scratch buffer, pair slot, and
// distinct metric value has been seen — Observe performs zero heap
// allocations per snapshot.
//
// Internally the analyzer separates state machines from event sinks, the
// split behind the Accumulator contract: the pair table, open sessions,
// and first-seen maps carry history across the whole stream, while every
// completed metric event (a contact duration, a closed session, a
// snapshot's zone counts) lands in the current sink. The plain Analyzer
// uses one sink for the whole run; the WindowedAnalyzer swaps sinks at
// window boundaries, and Checkpoint serialises both halves.
//
// With cfg.RangeWorkers > 1 the independent per-range passes (proximity
// graph, contact tracking, line-of-sight metrics) of each snapshot fan
// out across persistent worker goroutines; the worker count never
// changes results, only wall time.
type Analyzer struct {
	land     string
	tau      int64
	cfg      Config
	finished bool

	// Stream-wide cursor state.
	started       bool
	firstT, lastT int64
	// resuming marks an analyzer restored from a checkpoint: Consume
	// skips snapshots at or before resumeFrom (the checkpointed lastT,
	// which may legitimately be 0) instead of treating the replayed
	// prefix as an ordering violation.
	resuming   bool
	resumeFrom int64

	// Per-range contact and line-of-sight state machines.
	ranges []*rangeState
	// firstSeenT is each avatar's first appearance (seated included),
	// shared by every range's first-contact computation; its key count is
	// also the unique-user tally.
	firstSeenT map[trace.AvatarID]int64

	// Zone occupation scratch.
	zoneN      int
	zoneCounts []int

	// Trip sessionisation state machine.
	trips *tripTracker

	// cur is the event sink all metric events flow into.
	cur *sink

	// Per-snapshot scratch, reused across Observe calls.
	sc  snapScratch
	dup map[trace.AvatarID]struct{}

	// Range fanout, started lazily on the first parallel Observe: a
	// persistent fanout.Pool plus the hoisted dispatch closure and its
	// snapshot-time argument, so steady-state dispatch allocates nothing.
	fan    *fanout.Pool
	fanJob func(i int)
	fanT   int64
}

// sink is one window's worth of metric events: the mergeable,
// resettable accumulator set the state machines emit into. The plain
// analyzer owns exactly one; the windowed analyzer double-buffers two.
type sink struct {
	snapshots     int
	start, end    int64
	totalSamples  int
	maxConcurrent int
	// newUsers counts avatars first seen in this sink's window; summed
	// over windows it reproduces the whole-trace unique-user count.
	newUsers int

	zones    *stats.Weighted
	contacts []*ContactSet
	nets     []*NetMetrics
	closed   []closedSession
}

// newSink allocates a fresh sink for the analyzer's configured ranges.
func (a *Analyzer) newSink() *sink {
	s := &sink{zones: stats.NewWeighted()}
	for _, r := range a.cfg.Ranges {
		s.contacts = append(s.contacts, newContactSet(r, a.tau))
		s.nets = append(s.nets, newNetMetrics(r))
	}
	return s
}

// reset recycles the sink for the next window, retaining every internal
// allocation.
func (s *sink) reset() {
	s.snapshots = 0
	s.start, s.end = 0, 0
	s.totalSamples = 0
	s.maxConcurrent = 0
	s.newUsers = 0
	s.zones.Reset()
	for _, cs := range s.contacts {
		cs.Reset()
	}
	for _, nm := range s.nets {
		nm.Reset()
	}
	s.closed = s.closed[:0]
}

// bindSink points every state machine's event emission at s.
func (a *Analyzer) bindSink(s *sink) {
	a.cur = s
	for _, rs := range a.ranges {
		rs.ct.bind(s.contacts[rs.idx])
		rs.nm = s.nets[rs.idx]
	}
	a.trips.bind(&s.closed)
}

// rangeState pairs one communication range's contact state machine with
// its dedicated graph workspace and the current sink's line-of-sight
// accumulator.
type rangeState struct {
	r   float64
	idx int
	ct  *contactTracker
	nm  *NetMetrics
	ws  *graph.Workspace
}

// sessionState is one avatar's open presence on the land.
type sessionState struct {
	login   int64
	last    int64
	length  float64
	moving  int64
	hasPrev bool
	prevPos geom.Vec
	prevT   int64
}

// closedSession is a finished session's trip metrics, attributed to the
// window in which the closure was detected; the (login, id) key restores
// the batch path's output order.
type closedSession struct {
	id       trace.AvatarID
	login    int64
	duration int64
	length   float64
	moving   int64
}

// NewAnalyzer builds an incremental analyzer for one land's snapshot
// stream sampled every tau seconds. Zero cfg fields select the paper's
// parameters, as in Analyze; cfg.LandSize zero selects the Second Life
// standard 256 m (the batch path reads it from trace metadata instead).
func NewAnalyzer(land string, tau int64, cfg Config) (*Analyzer, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("core: non-positive tau %d", tau)
	}
	cfg = cfg.withDefaults(tau)
	for _, r := range cfg.Ranges {
		if r <= 0 {
			return nil, fmt.Errorf("core: non-positive range %v", r)
		}
	}
	if cfg.ZoneSize <= 0 || cfg.LandSize <= 0 {
		return nil, fmt.Errorf("core: invalid zone parameters land=%v cell=%v", cfg.LandSize, cfg.ZoneSize)
	}
	n := int(math.Ceil(cfg.LandSize / cfg.ZoneSize))
	a := &Analyzer{
		land:       land,
		tau:        tau,
		cfg:        cfg,
		firstSeenT: make(map[trace.AvatarID]int64),
		zoneN:      n,
		zoneCounts: make([]int, n*n),
		dup:        make(map[trace.AvatarID]struct{}),
	}
	a.trips = newTripTracker(cfg.MoveEps, cfg.SessionGap, nil)
	for i, r := range cfg.Ranges {
		a.ranges = append(a.ranges, &rangeState{
			r:   r,
			idx: i,
			ct:  newContactTracker(tau),
			ws:  graph.NewWorkspace(),
		})
	}
	a.bindSink(a.newSink())
	return a, nil
}

// seated reports the sample's effective seated state, applying the
// {0,0,0} repair when configured (the streaming equivalent of
// NormalizeSeated).
func (a *Analyzer) seated(s trace.Sample) bool {
	return s.Seated || (a.cfg.TreatZeroAsSeated && s.Pos.IsZero())
}

// Observe folds one snapshot into the running analysis. Snapshots must
// arrive in strictly increasing time order with no duplicate avatars,
// the invariants Trace.Validate enforces on the batch path.
//
//slmob:hotpath
func (a *Analyzer) Observe(snap trace.Snapshot) error {
	if a.finished {
		return fmt.Errorf("core: Observe after Finish")
	}
	if a.started && snap.T <= a.lastT {
		return fmt.Errorf("core: invalid stream: snapshot at t=%d not after t=%d", snap.T, a.lastT)
	}
	clear(a.dup)
	for _, s := range snap.Samples {
		if _, ok := a.dup[s.ID]; ok {
			return fmt.Errorf("core: invalid stream: duplicate avatar %d in snapshot t=%d", s.ID, snap.T)
		}
		a.dup[s.ID] = struct{}{}
	}
	if !a.started {
		a.started = true
		a.firstT = snap.T
	}
	a.lastT = snap.T
	cur := a.cur
	if cur.snapshots == 0 {
		cur.start = snap.T
	}
	cur.end = snap.T
	cur.snapshots++
	cur.totalSamples += len(snap.Samples)
	if n := len(snap.Samples); n > cur.maxConcurrent {
		cur.maxConcurrent = n
	}

	// Live (non-seated) avatars of this snapshot, plus first appearances.
	cur.newUsers += a.sc.fill(snap, a.firstSeenT, a.cfg.TreatZeroAsSeated)

	if a.cfg.RangeWorkers > 1 && len(a.ranges) > 1 {
		a.fanObserve(snap.T)
	} else {
		for _, rs := range a.ranges {
			a.observeRange(rs, snap.T)
		}
	}
	a.observeZones()
	for _, s := range snap.Samples {
		a.trips.observe(s.ID, s.Pos, a.seated(s), snap.T)
	}
	return nil
}

// observeRange advances one range's contact state machine and appends its
// line-of-sight metrics, sharing a single workspace-built proximity graph
// between both. The workspace persists across snapshots, so by default the
// graph is patched incrementally from the previous snapshot
// (temporal-coherence path); each range owns its workspace and sees the
// same snapshot sequence regardless of the range-fan worker count, so the
// RangeWorkers invariance is preserved.
//
//slmob:hotpath
func (a *Analyzer) observeRange(rs *rangeState, t int64) {
	if a.cfg.DisableIncremental {
		rs.ws.FromPositions(a.sc.positions, rs.r)
	} else {
		rs.ws.ApplyPositions(a.sc.gids, a.sc.positions, rs.r)
	}
	rs.ct.observe(a.sc.ids, a.sc.fsT, rs.ws, t, t == a.firstT)

	// Line-of-sight metrics; snapshots without users are skipped.
	if len(a.sc.positions) == 0 {
		return
	}
	rs.nm.observe(rs.ws)
}

// observeZones folds one occupancy count per cell for this snapshot into
// the weighted zone distribution.
//
//slmob:hotpath
func (a *Analyzer) observeZones() {
	for i := range a.zoneCounts {
		a.zoneCounts[i] = 0
	}
	for _, p := range a.sc.positions {
		if k, ok := zoneCell(p, a.cfg.ZoneSize, a.zoneN); ok {
			a.zoneCounts[k]++
		}
	}
	// Most cells of a land are empty most of the time; batch the zero
	// cells into one weighted insert and add the occupied ones singly.
	zeros := int64(0)
	zones := a.cur.zones
	for _, c := range a.zoneCounts {
		if c == 0 {
			zeros++
			continue
		}
		zones.Add(float64(c))
	}
	zones.AddN(0, zeros)
}

// fanObserve dispatches the current snapshot's ranges across the
// persistent fanout pool and blocks until every range has absorbed it.
// Pool.Run is a per-snapshot barrier, which keeps the analyzer's
// synchronous, order-dependent contract while spending multiple cores
// per snapshot: no worker is mid-range outside fanObserve, so sinks can
// be swapped safely between snapshots. Each index is claimed by exactly
// one worker per Run, so every range's state machine stays effectively
// single-goroutine; dynamic index claiming also load-balances the
// ranges, whose graph costs differ widely (r=80 vs r=10). Dispatch
// reuses the hoisted a.fanJob closure, so it allocates nothing.
func (a *Analyzer) fanObserve(t int64) {
	if a.fan == nil {
		workers := a.cfg.RangeWorkers
		if workers > len(a.ranges) {
			workers = len(a.ranges)
		}
		a.fan = fanout.NewPool(workers)
		a.fanJob = func(i int) {
			a.observeRange(a.ranges[i], a.fanT)
		}
	}
	a.fanT = t
	a.fan.Run(len(a.ranges), a.fanJob)
}

// stopFan winds down the range workers; safe to call when none run.
func (a *Analyzer) stopFan() {
	if a.fan == nil {
		return
	}
	a.fan.Close()
	a.fan = nil
}

// sealFinal emits the end-of-stream events into the current sink: open
// contacts right-censor, the never-contacted population resolves, and
// open sessions close. Only the final window receives these.
func (a *Analyzer) sealFinal() {
	for _, rs := range a.ranges {
		rs.ct.finish(len(a.firstSeenT))
	}
	a.trips.closeAll()
}

// buildAnalysis assembles an Analysis from one sink, reusing out (and
// its maps, trip slices, and session buffer) when non-nil — the
// allocation-free path behind window rollover in hook mode.
func (a *Analyzer) buildAnalysis(s *sink, out *Analysis) *Analysis {
	if out == nil {
		out = &Analysis{
			Contacts: make(map[float64]*ContactSet, len(a.cfg.Ranges)),
			Nets:     make(map[float64]*NetMetrics, len(a.cfg.Ranges)),
			Trips:    &TripStats{},
		}
	}
	out.Land = a.land
	out.Start, out.End = s.start, s.end
	out.Summary = trace.Summary{
		Land:          a.land,
		Snapshots:     s.snapshots,
		Unique:        s.newUsers,
		MaxConcurrent: s.maxConcurrent,
		TotalSamples:  s.totalSamples,
	}
	if s.snapshots >= 2 {
		out.Summary.DurationSec = s.end - s.start
	}
	if s.snapshots > 0 {
		out.Summary.MeanConcurrent = float64(s.totalSamples) / float64(s.snapshots)
	}
	for i, r := range a.cfg.Ranges {
		out.Contacts[r] = s.contacts[i]
		out.Nets[r] = s.nets[i]
	}
	out.Zones = s.zones
	out.Trips = buildTripStats(s.closed, out.Trips)
	return out
}

// WorkspaceStats sums the incremental-engine counters of every per-range
// graph workspace — how many snapshots were served incrementally, diff
// rates, and metric-cache hits. Call it between snapshots or after
// Finish: while a fanned-out Observe is in flight the workspaces are
// being written by their worker goroutines.
func (a *Analyzer) WorkspaceStats() graph.WorkspaceStats {
	var st graph.WorkspaceStats
	for _, rs := range a.ranges {
		st.Add(rs.ws.Stats())
	}
	return st
}

// Finish closes censored contacts and open sessions and returns the
// completed Analysis. The analyzer cannot be reused afterwards.
func (a *Analyzer) Finish() (*Analysis, error) {
	if a.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	a.finished = true
	a.stopFan()
	a.sealFinal()
	return a.buildAnalysis(a.cur, nil), nil
}

// Consume drains a snapshot source into the analyzer and finishes it: the
// one-call streaming pipeline. It stops on the first error; a cancelled
// context surfaces as ctx.Err() from the source. After a checkpoint
// restore, snapshots at or before the checkpointed time are skipped, so
// a source replayed from the start resumes exactly where the snapshot
// was taken.
func (a *Analyzer) Consume(ctx context.Context, src trace.Source) (*Analysis, error) {
	return a.ConsumeWith(ctx, src, nil)
}

// ConsumeWith is Consume with a callback invoked after every observed
// snapshot — between snapshots, when the analyzer is quiescent and safe
// to Checkpoint (the façade's periodic-checkpoint hook). A callback
// error aborts the drain; the range-fan workers are wound down on every
// exit path.
func (a *Analyzer) ConsumeWith(ctx context.Context, src trace.Source, after func(t int64) error) (*Analysis, error) {
	defer a.stopFan()
	for {
		snap, err := src.Next(ctx)
		if err == io.EOF {
			return a.Finish()
		}
		if err != nil {
			return nil, err
		}
		if a.resuming && snap.T <= a.resumeFrom {
			continue
		}
		if err := a.Observe(snap); err != nil {
			return nil, err
		}
		if after != nil {
			if err := after(snap.T); err != nil {
				return nil, err
			}
		}
	}
}
