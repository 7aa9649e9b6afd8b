package world

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"slmob/internal/fanout"
	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// EstateConfig describes a multi-region estate: an R×C grid of lands
// ("regions", in Second Life's terms) advancing on one shared clock, the
// contiguous-world topology the live service actually had and the paper's
// three isolated islands abstracted away. Avatars move between regions two
// ways, both governed by estate-level probabilities: by walking across a
// shared border (the avatar is handed off to the neighbour with its
// position re-based into the neighbour's coordinates) and by teleporting
// to a point of interest in another region.
type EstateConfig struct {
	// Name labels the estate ("Paper Archipelago", "Mainland").
	Name string
	// Rows and Cols shape the grid; region (row, col) is
	// Regions[row*Cols+col] and covers global coordinates
	// [col·S, (col+1)·S) × [row·S, (row+1)·S) for region size S.
	Rows, Cols int
	// Regions holds one scenario per region, row-major. All lands must
	// share one Size so the grid tiles; per-region behaviour, churn, and
	// seeds are free.
	Regions []Scenario
	// CrossProb is the per-second probability that a paused avatar departs
	// for a uniformly chosen neighbouring region by walking across the
	// shared border. Zero disables walking handoffs.
	CrossProb float64
	// TeleportProb is the per-second probability that a paused avatar
	// teleports to a POI in a uniformly chosen other region. Zero
	// disables teleports.
	TeleportProb float64
	// Seed drives the estate-level decision stream (who crosses where);
	// region simulations keep their own scenario seeds.
	Seed uint64
	// Duration of the shared clock in seconds; zero adopts the first
	// region's scenario duration.
	Duration int64
	// SimWorkers is how many goroutines step regions concurrently each
	// tick. Region simulations are independent within a tick — each owns
	// its rng streams and avatar set — so the worker count never changes
	// results, only wall time; the estate-level decision sweep stays
	// serial either way. Values below 2 select the serial loop.
	SimWorkers int
}

// SingleRegionEstate wraps one scenario as a 1×1 estate: the degenerate
// grid, whose trace is bit-identical to the single-land pipeline's.
func SingleRegionEstate(scn Scenario) EstateConfig {
	return EstateConfig{
		Name:    scn.Land.Name,
		Rows:    1,
		Cols:    1,
		Regions: []Scenario{scn},
		Seed:    scn.Seed,
	}
}

// RegionSize returns the shared region edge length.
func (c EstateConfig) RegionSize() float64 {
	if len(c.Regions) == 0 {
		return 0
	}
	return c.Regions[0].Land.Size
}

// RegionOrigin returns region i's offset in estate-global coordinates.
func (c EstateConfig) RegionOrigin(i int) geom.Vec {
	s := c.RegionSize()
	return geom.V2(float64(i%c.Cols)*s, float64(i/c.Cols)*s)
}

// EffectiveDuration returns the shared-clock duration with the default
// applied.
func (c EstateConfig) EffectiveDuration() int64 {
	if c.Duration > 0 {
		return c.Duration
	}
	if len(c.Regions) > 0 {
		return c.Regions[0].Duration
	}
	return 0
}

// Validate checks the estate for structural problems, including every
// region scenario.
func (c EstateConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("world: estate needs a name")
	}
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("world: estate %q has non-positive grid %dx%d", c.Name, c.Rows, c.Cols)
	}
	if len(c.Regions) != c.Rows*c.Cols {
		return fmt.Errorf("world: estate %q has %d regions, want %d (%dx%d)",
			c.Name, len(c.Regions), c.Rows*c.Cols, c.Rows, c.Cols)
	}
	if c.CrossProb < 0 || c.CrossProb > 1 {
		return fmt.Errorf("world: estate %q cross probability %v out of [0,1]", c.Name, c.CrossProb)
	}
	if c.TeleportProb < 0 || c.TeleportProb > 1 {
		return fmt.Errorf("world: estate %q teleport probability %v out of [0,1]", c.Name, c.TeleportProb)
	}
	if c.EffectiveDuration() <= 0 {
		return fmt.Errorf("world: estate %q has no duration", c.Name)
	}
	size := c.RegionSize()
	names := make(map[string]struct{}, len(c.Regions))
	for i, scn := range c.Regions {
		if err := scn.Validate(); err != nil {
			return fmt.Errorf("world: estate %q region %d: %w", c.Name, i, err)
		}
		if scn.Land.Size != size {
			return fmt.Errorf("world: estate %q region %q size %v != grid size %v",
				c.Name, scn.Land.Name, scn.Land.Size, size)
		}
		if _, dup := names[scn.Land.Name]; dup {
			return fmt.Errorf("world: estate %q has duplicate region name %q", c.Name, scn.Land.Name)
		}
		names[scn.Land.Name] = struct{}{}
	}
	return nil
}

// regionIDBits namespaces avatar IDs: region i assigns IDs offset by
// i·2^40, so identities stay globally unique across handoffs while
// region 0 — and with it every 1×1 estate — keeps the exact IDs of the
// single-land pipeline.
const regionIDBits = 40

// pendingMove is one avatar leaving its region this tick, collected
// during the decision sweep and applied afterwards so region populations
// are never mutated mid-iteration.
type pendingMove struct {
	from, to int
	a        *avatar
	teleport bool
}

// EstateSim advances every region of an estate in lockstep and performs
// the cross-border handoffs between them. Like Sim, it is not safe for
// concurrent use: with cfg.SimWorkers > 1 the region steps inside one
// tick fan out across a persistent worker pool, but the estate itself
// still expects a single driving goroutine.
type EstateSim struct {
	cfg  EstateConfig
	size float64
	sims []*Sim
	t    int64
	rng  *rng.Source

	crossings int
	teleports int
	blocked   int

	moves []pendingMove

	// pool steps regions concurrently (nil when serial); stepJob is the
	// hoisted dispatch closure so per-tick fanout allocates nothing.
	pool    *fanout.Pool
	stepJob func(i int)
}

// NewEstateSim validates the estate and builds one simulation per region,
// each in its own avatar-ID namespace.
func NewEstateSim(cfg EstateConfig) (*EstateSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &EstateSim{
		cfg:  cfg,
		size: cfg.RegionSize(),
		rng:  rng.New(cfg.Seed).Split("estate"),
	}
	for i, scn := range cfg.Regions {
		sim, err := newSimWithIDBase(scn, uint64(i)<<regionIDBits)
		if err != nil {
			return nil, err
		}
		e.sims = append(e.sims, sim)
	}
	if workers := cfg.SimWorkers; workers > 1 && len(e.sims) > 1 {
		if workers > len(e.sims) {
			workers = len(e.sims)
		}
		e.pool = fanout.NewPool(workers)
		e.stepJob = func(i int) { e.sims[i].Step() }
	}
	return e, nil
}

// StepWorkers reports the estate's effective step concurrency.
func (e *EstateSim) StepWorkers() int { return e.pool.Workers() }

// StepPool exposes the estate's persistent step pool — nil when the
// estate steps serially — so the serving layer can fan its own
// per-tick phases across the same parked workers instead of keeping a
// second pool. The pool is single-dispatcher: only the goroutine
// driving Step may use it.
func (e *EstateSim) StepPool() *fanout.Pool { return e.pool }

// Close winds down the estate's step workers; safe (and a no-op) on a
// serial estate.
func (e *EstateSim) Close() { e.pool.Close() }

// Time returns the shared clock in seconds.
func (e *EstateSim) Time() int64 { return e.t }

// Config returns the estate configuration.
func (e *EstateSim) Config() EstateConfig { return e.cfg }

// NumRegions returns the number of regions.
func (e *EstateSim) NumRegions() int { return len(e.sims) }

// Region returns region i's simulation for inspection. Mutating it
// directly is the caller's risk.
func (e *EstateSim) Region(i int) *Sim { return e.sims[i] }

// Origin returns region i's offset in estate-global coordinates.
func (e *EstateSim) Origin(i int) geom.Vec { return e.cfg.RegionOrigin(i) }

// Population returns the total resident avatars across all regions.
func (e *EstateSim) Population() int {
	n := 0
	for _, s := range e.sims {
		n += s.Population()
	}
	return n
}

// Crossings returns how many walking border handoffs have completed.
func (e *EstateSim) Crossings() int { return e.crossings }

// Teleports returns how many inter-region teleports have completed.
func (e *EstateSim) Teleports() int { return e.teleports }

// BlockedHandoffs returns how many handoffs were refused because the
// destination region was at its avatar cap.
func (e *EstateSim) BlockedHandoffs() int { return e.blocked }

// Step advances the whole estate by one second: every region simulation
// ticks, then pending border crossings and teleports are resolved in
// process. The estate server makes the same call, so a served estate
// hands avatars off exactly as the offline one does.
//
// Region steps within a tick are independent — each sim owns its rng
// streams, avatar set, and departure scratch — so with a pool they fan
// out across the parked workers; Pool.Run is a barrier, so the migration
// sweep that follows always sees every region fully stepped, and a nil
// pool degenerates to the serial region-order loop.
func (e *EstateSim) Step() {
	e.t++
	if e.pool != nil {
		e.pool.Run(len(e.sims), e.stepJob)
	} else {
		for _, s := range e.sims {
			s.Step()
		}
	}
	if len(e.sims) < 2 || (e.cfg.CrossProb == 0 && e.cfg.TeleportProb == 0) {
		return
	}
	e.sweep()
	for _, m := range e.moves {
		if e.admit(m.a, m.from, m.to, m.teleport) {
			e.sims[m.from].removeAvatar(m.a)
		} else {
			e.refuse(m)
		}
	}
}

// RunUntil advances the estate to the given shared-clock time.
func (e *EstateSim) RunUntil(t int64) {
	for e.t < t {
		e.Step()
	}
}

// neighbors appends the region indices adjacent to region ri in the grid.
func (e *EstateSim) neighbors(ri int, buf []int) []int {
	row, col := ri/e.cfg.Cols, ri%e.cfg.Cols
	buf = buf[:0]
	if row > 0 {
		buf = append(buf, ri-e.cfg.Cols)
	}
	if row < e.cfg.Rows-1 {
		buf = append(buf, ri+e.cfg.Cols)
	}
	if col > 0 {
		buf = append(buf, ri-1)
	}
	if col < e.cfg.Cols-1 {
		buf = append(buf, ri+1)
	}
	return buf
}

// borderEps keeps walking targets strictly inside the source region; the
// rebase into the neighbour clamps the residue away.
const borderEps = 0.5

// sweep runs the estate's per-tick cross-region decision pass: it
// finishes walks that reached a border and rolls teleport and crossing
// decisions for paused avatars, collecting the resulting handoffs into
// e.moves in deterministic region-major order.
func (e *EstateSim) sweep() {
	e.moves = e.moves[:0]
	var nbuf [4]int
	for ri, s := range e.sims {
		for _, a := range s.avatars {
			if a.crossTo >= 0 {
				// A crossing in flight: the sim parks arrivals in a pause
				// (or a seat) at the border, which is the handoff signal.
				if a.phase != phaseTravel {
					e.moves = append(e.moves, pendingMove{from: ri, to: a.crossTo, a: a})
				}
				continue
			}
			if a.phase != phasePause {
				continue
			}
			if e.cfg.TeleportProb > 0 && e.rng.Bool(e.cfg.TeleportProb) {
				dst := e.rng.Intn(len(e.sims) - 1)
				if dst >= ri {
					dst++
				}
				e.moves = append(e.moves, pendingMove{from: ri, to: dst, a: a, teleport: true})
				continue
			}
			if e.cfg.CrossProb > 0 && e.rng.Bool(e.cfg.CrossProb) {
				nbrs := e.neighbors(ri, nbuf[:0])
				e.beginCrossing(ri, a, nbrs[e.rng.Intn(len(nbrs))])
			}
		}
	}
}

// beginCrossing aims the avatar at the border it shares with the chosen
// neighbour; the regular travel machinery walks it there.
func (e *EstateSim) beginCrossing(ri int, a *avatar, to int) {
	target := a.pos
	switch to - ri {
	case -e.cfg.Cols: // north neighbour (lower row)
		target.Y = 0 + borderEps
	case e.cfg.Cols: // south neighbour
		target.Y = e.size - borderEps
	case -1: // west neighbour
		target.X = 0 + borderEps
	case 1: // east neighbour
		target.X = e.size - borderEps
	}
	a.beginTravel(target, e.sims[ri].scn.Behavior)
	a.crossTo = to
}

// admit places avatar a into region `to` and reports success: it
// capacity-checks the destination, re-bases the position (or rezzes the
// teleport at an attraction), and resumes the avatar's behaviour in the
// new region. The caller removes the avatar from its source afterwards.
func (e *EstateSim) admit(a *avatar, from, to int, teleport bool) bool {
	dst := e.sims[to]
	if len(dst.avatars)+len(dst.externals) >= dst.scn.Land.EffectiveMaxAvatars() {
		return false
	}
	a.crossTo = -1
	if teleport {
		// Rez at an attraction of the destination region and resume the
		// interrupted pause there.
		pois := dst.scn.Land.POIs
		if len(pois) > 0 {
			weights := make([]float64, len(pois))
			for i, p := range pois {
				weights[i] = p.Weight
			}
			poi := pois[e.rng.Choice(weights)]
			a.pos = dst.jitter(poi.Pos, poi.Radius, e.rng)
		} else {
			a.pos = dst.uniformPoint(e.rng)
		}
		a.anchor = a.pos
		a.phase = phasePause
		a.seat = -1
		e.teleports++
	} else {
		// Walked off the edge: re-base the position into the neighbour's
		// coordinates and keep going toward a destination there.
		srcO, dstO := e.Origin(from), e.Origin(to)
		a.pos = dst.scn.Land.Bounds().Clamp(a.pos.Add(srcO.Sub(dstO)))
		a.beginTravel(dst.destinationFor(a), dst.scn.Behavior)
		e.crossings++
	}
	dst.avatars = append(dst.avatars, a)
	if n := len(dst.avatars); n > dst.peak {
		dst.peak = n
	}
	return true
}

// refuse turns a pending move back at a full destination: the avatar
// stays in its source region and — for a walked crossing — lingers at
// the border before moving on.
func (e *EstateSim) refuse(m pendingMove) {
	e.blocked++
	m.a.crossTo = -1
	if m.a.phase == phaseSeated {
		e.sims[m.from].standUp(m.a)
	}
	if !m.teleport {
		// Turned back at a full border: linger there, then move on.
		m.a.beginPause(e.t, e.sims[m.from].scn.Behavior)
	}
}

// EstateSource streams τ-sampled per-region snapshots out of a running
// estate simulation: the sharded counterpart of Source. Each NextTick
// advances the shared clock by tau seconds and observes every region.
type EstateSource struct {
	est  *EstateSim
	tau  int64
	dur  int64
	bufs [][]AvatarState
}

// NewEstateSource validates the estate, spawns its simulations, and
// returns a source that yields one tick every tau simulated seconds
// until the shared-clock duration elapses.
func NewEstateSource(cfg EstateConfig, tau int64) (*EstateSource, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("world: non-positive tau %d", tau)
	}
	est, err := NewEstateSim(cfg)
	if err != nil {
		return nil, err
	}
	return &EstateSource{
		est:  est,
		tau:  tau,
		dur:  cfg.EffectiveDuration(),
		bufs: make([][]AvatarState, len(est.sims)),
	}, nil
}

// Estate exposes the underlying estate simulation (ground-truth
// inspection: crossing counters, per-region populations).
func (s *EstateSource) Estate() *EstateSim { return s.est }

// Regions reports each region's provenance: its land name doubles as the
// region identity, its origin places it in estate-global coordinates,
// and the metadata round-trips both through trace files.
func (s *EstateSource) Regions() []trace.Info {
	infos := make([]trace.Info, len(s.est.sims))
	for i, sim := range s.est.sims {
		scn := sim.Scenario()
		origin := s.est.Origin(i)
		infos[i] = trace.Info{
			Land:   scn.Land.Name,
			Region: scn.Land.Name,
			Origin: origin,
			Tau:    s.tau,
			Meta: map[string]string{
				"monitor": "in-process",
				"estate":  s.est.cfg.Name,
				"region":  scn.Land.Name,
				"origin": strconv.FormatFloat(origin.X, 'g', -1, 64) + "," +
					strconv.FormatFloat(origin.Y, 'g', -1, 64),
				"seed":  strconv.FormatUint(scn.Seed, 10),
				"model": scn.Model.String(),
				"size":  strconv.FormatFloat(scn.Land.Size, 'g', -1, 64),
			},
		}
	}
	return infos
}

// NextTick advances the estate one snapshot period and samples every
// region. It returns io.EOF once the shared duration has been observed
// and ctx.Err() promptly after cancellation.
func (s *EstateSource) NextTick(ctx context.Context) (trace.EstateTick, error) {
	if err := ctx.Err(); err != nil {
		return trace.EstateTick{}, err
	}
	next := s.est.Time() + s.tau
	if next > s.dur {
		return trace.EstateTick{}, io.EOF
	}
	s.est.RunUntil(next)
	tick := trace.EstateTick{T: next, Regions: make([]trace.Snapshot, len(s.est.sims))}
	for i, sim := range s.est.sims {
		s.bufs[i] = sim.ResidentStates(s.bufs[i])
		snap := trace.Snapshot{T: next, Samples: make([]trace.Sample, len(s.bufs[i]))}
		for j, st := range s.bufs[i] {
			snap.Samples[j] = trace.Sample{ID: st.ID, Pos: st.Pos, Seated: st.Seated}
		}
		tick.Regions[i] = snap
	}
	return tick, nil
}
