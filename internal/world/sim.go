package world

import (
	"fmt"
	"math"
	"sort"

	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// Scenario bundles everything needed to run one land simulation.
type Scenario struct {
	Land     LandConfig
	Behavior Behavior
	Session  SessionModel
	Arrivals Arrivals
	Model    Model
	// Seed makes the whole run reproducible.
	Seed uint64
	// Duration is the simulated measurement length in seconds (the paper
	// analyses 24-hour traces).
	Duration int64
	// Warmup avatars are already on the land at time zero, so the trace
	// starts on an active land as the paper's did. A good value is the
	// target mean concurrency.
	Warmup int
}

// Validate checks the whole scenario.
func (s Scenario) Validate() error {
	if err := s.Land.Validate(); err != nil {
		return err
	}
	if err := s.Behavior.Validate(); err != nil {
		return err
	}
	if err := s.Session.Validate(); err != nil {
		return err
	}
	if err := s.Arrivals.Validate(); err != nil {
		return err
	}
	if s.Model == POIGravity && len(s.Land.POIs) == 0 {
		return fmt.Errorf("world: POI-gravity model on land %q without POIs", s.Land.Name)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("world: non-positive duration %d", s.Duration)
	}
	if s.Warmup < 0 || s.Warmup > s.Land.EffectiveMaxAvatars() {
		return fmt.Errorf("world: warmup %d out of range", s.Warmup)
	}
	return nil
}

// ChatMessage is one utterance in local chat. Second Life local chat
// carries ~20 m; the server module enforces the radius when relaying.
type ChatMessage struct {
	T    int64
	From trace.AvatarID
	Pos  geom.Vec
	Text string
}

// DepartedStats records the ground truth for an avatar that logged out,
// used to validate the analysis pipeline against what actually happened.
type DepartedStats struct {
	ID         trace.AvatarID
	LoginT     int64
	LogoutT    int64
	Travelled  float64
	MovingSecs int64
	Wanderer   bool
}

// externalState tracks a monitor-controlled avatar (the crawler).
type externalState struct {
	id       trace.AvatarID
	pos      geom.Vec
	joinedAt int64
	lastMove int64
	lastChat int64
}

// Suspicion thresholds for the perturbation model: an avatar that has
// neither moved nor chatted recently reads as a bot and attracts curious
// users (paper §2: "a steady convergence of user movements towards our
// crawler").
const (
	suspiciousAfterJoin = 45 // seconds of presence before anyone cares
	suspiciousNoMove    = 30 // seconds without movement
	suspiciousNoChat    = 90 // seconds without chat
)

// Sim is a running land simulation. It is not safe for concurrent use;
// the server serialises access.
type Sim struct {
	scn Scenario
	t   int64

	avatars   []*avatar
	nextID    uint64
	externals []*externalState

	// idBase offsets every ID the sim assigns, so the regions of an
	// estate draw from disjoint ID spaces and an avatar keeps a globally
	// unique identity across handoffs. Zero for single-land simulations,
	// which keeps their traces byte-identical to the pre-estate ones.
	idBase uint64

	root   *rng.Source
	arrRng *rng.Source

	chatHook func(ChatMessage)

	departed       []DepartedStats
	totalLogins    int
	rejectedLogins int
	peak           int
}

// NewSim validates the scenario and creates the simulation, spawning the
// warmup population at their destinations.
func NewSim(scn Scenario) (*Sim, error) {
	return newSimWithIDBase(scn, 0)
}

// newSimWithIDBase is NewSim with an avatar-ID namespace offset, used by
// the estate to keep identities globally unique across regions.
func newSimWithIDBase(scn Scenario, idBase uint64) (*Sim, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		scn:    scn,
		root:   rng.New(scn.Seed),
		idBase: idBase,
	}
	s.arrRng = s.root.Split("arrivals")
	warm := s.root.Split("warmup")
	for i := 0; i < scn.Warmup; i++ {
		a := s.newAvatar()
		// Mid-session residual: position already at a destination, with a
		// uniformly elapsed fraction of the session.
		full := scn.Session.Sample(a.rng)
		a.logoutAt = int64(full * warm.Float64())
		if a.logoutAt < 1 {
			a.logoutAt = 1
		}
		a.pos = s.destinationFor(a)
		a.beginPause(0, scn.Behavior)
		s.avatars = append(s.avatars, a)
		s.totalLogins++
	}
	s.peak = len(s.avatars)
	return s, nil
}

// Time returns the current simulation time in seconds.
func (s *Sim) Time() int64 { return s.t }

// Scenario returns the scenario the sim was built from.
func (s *Sim) Scenario() Scenario { return s.scn }

// Population returns the number of resident avatars (externals excluded).
func (s *Sim) Population() int { return len(s.avatars) }

// TotalLogins returns the number of accepted logins including warmup.
func (s *Sim) TotalLogins() int { return s.totalLogins }

// RejectedLogins returns logins refused because the land was full.
func (s *Sim) RejectedLogins() int { return s.rejectedLogins }

// Peak returns the maximum concurrent population seen so far.
func (s *Sim) Peak() int { return s.peak }

// Departed returns ground-truth statistics for all avatars that have
// logged out so far. The returned slice is owned by the sim; callers must
// not modify it.
func (s *Sim) Departed() []DepartedStats { return s.departed }

// SetChatHook registers a callback invoked for every avatar chat message.
func (s *Sim) SetChatHook(fn func(ChatMessage)) { s.chatHook = fn }

// newAvatar allocates an avatar with its own deterministic stream.
func (s *Sim) newAvatar() *avatar {
	s.nextID++
	id := s.nextID
	a := &avatar{
		id:      trace.AvatarID(s.idBase + id),
		rng:     s.root.SplitIndexed("avatar", id),
		seat:    -1,
		crossTo: -1,
	}
	b := s.scn.Behavior
	a.wanderer = a.rng.Bool(b.WandererFrac)
	if a.wanderer {
		a.wanderLegs = b.WandererLegs
	}
	return a
}

// spawnAt logs a fresh avatar in at a spawn point.
func (s *Sim) spawnAt(now int64) {
	if len(s.avatars)+len(s.externals) >= s.scn.Land.EffectiveMaxAvatars() {
		s.rejectedLogins++
		return
	}
	a := s.newAvatar()
	b := s.scn.Behavior
	a.logoutAt = now + int64(s.scn.Session.Sample(a.rng))
	if a.logoutAt <= now {
		a.logoutAt = now + 1
	}
	if b.ScatterLoginFrac > 0 && a.rng.Bool(b.ScatterLoginFrac) {
		// Returning user: rez at the last saved location (uniform over the
		// land) and head straight for an attraction.
		a.pos = s.uniformPoint(a.rng)
		a.beginTravel(s.destinationFor(a), b)
	} else {
		sp := s.scn.Land.Spawns[a.rng.Intn(len(s.scn.Land.Spawns))]
		jr := b.SpawnJitter
		if jr <= 0 {
			jr = 3
		}
		a.pos = s.jitter(sp, jr, a.rng)
		a.firstLeg = true
		if b.ArrivalPauseMax > 0 {
			a.phase = phasePause
			a.anchor = a.pos
			a.pauseUntil = now + int64(a.rng.Range(b.ArrivalPauseMin, b.ArrivalPauseMax))
		} else {
			a.beginTravel(s.destinationFor(a), b)
		}
	}
	a.loginT = now
	s.avatars = append(s.avatars, a)
	s.totalLogins++
	if n := len(s.avatars); n > s.peak {
		s.peak = n
	}
}

// jitter displaces p by up to radius metres uniformly, clamped to bounds.
func (s *Sim) jitter(p geom.Vec, radius float64, r *rng.Source) geom.Vec {
	ang := r.Range(0, 2*math.Pi)
	d := radius * math.Sqrt(r.Float64())
	q := p.Add(geom.V(d*math.Cos(ang), d*math.Sin(ang), 0))
	return s.scn.Land.Bounds().Clamp(q)
}

// uniformPoint draws a uniform ground-plane point of the land.
func (s *Sim) uniformPoint(r *rng.Source) geom.Vec {
	return geom.V2(r.Range(0, s.scn.Land.Size), r.Range(0, s.scn.Land.Size))
}

// destinationFor picks the avatar's next destination under the scenario's
// mobility model.
func (s *Sim) destinationFor(a *avatar) geom.Vec {
	b := s.scn.Behavior
	switch s.scn.Model {
	case RandomWaypoint:
		return s.uniformPoint(a.rng)
	case LevyWalk:
		ang := a.rng.Range(0, 2*math.Pi)
		step := a.rng.Levy(1.2, 1, 2*s.scn.Land.Size)
		q := a.pos.Add(geom.V(step*math.Cos(ang), step*math.Sin(ang), 0))
		return s.scn.Land.Bounds().Clamp(q)
	default: // POIGravity
		if a.wanderer && a.wanderLegs > 0 {
			a.wanderLegs--
			return s.uniformPoint(a.rng)
		}
		if b.ExploreProb > 0 && a.rng.Bool(b.ExploreProb) {
			return s.uniformPoint(a.rng)
		}
		pois := s.scn.Land.POIs
		weights := make([]float64, len(pois))
		// Fresh visitors pick their first destination mostly from the land
		// map rather than by proximity: halve the gravity exponent for the
		// leg out of the telehub so arrivals fan out instead of converging
		// on the hub's nearest attraction.
		gamma := b.GravityGamma
		if a.firstLeg {
			gamma /= 2
		}
		a.firstLeg = false
		for i, p := range pois {
			weights[i] = p.Weight
			if gamma > 0 {
				d := math.Max(a.pos.DistXY(p.Pos), 20)
				weights[i] /= math.Pow(d, gamma)
			}
		}
		poi := pois[a.rng.Choice(weights)]
		return s.jitter(poi.Pos, poi.Radius, a.rng)
	}
}

// pauseFor starts the model-appropriate pause.
func (s *Sim) pauseFor(a *avatar, now int64) {
	b := s.scn.Behavior
	if s.scn.Model == RandomWaypoint {
		a.phase = phasePause
		a.anchor = a.pos
		a.pauseUntil = now + int64(a.rng.Range(b.PauseMin, b.PauseMax))
		return
	}
	a.beginPause(now, b)
}

// Step advances the simulation by one second.
func (s *Sim) Step() {
	s.t++
	now := s.t

	// Arrivals: Poisson count for this second.
	if rate := s.scn.Arrivals.Rate(now); rate > 0 {
		for n := s.arrRng.Poisson(rate); n > 0; n-- {
			s.spawnAt(now)
		}
	}

	// Update each avatar; compact the slice over departures.
	live := s.avatars[:0]
	for _, a := range s.avatars {
		if now >= a.logoutAt {
			s.departed = append(s.departed, DepartedStats{
				ID:         a.id,
				LoginT:     a.loginT,
				LogoutT:    now,
				Travelled:  a.travelled,
				MovingSecs: a.movingSecs,
				Wanderer:   a.wanderer,
			})
			continue
		}
		s.updateAvatar(a, now)
		live = append(live, a)
	}
	s.avatars = live
	if n := len(s.avatars); n > s.peak {
		s.peak = n
	}
}

// RunUntil advances the simulation to the given time.
func (s *Sim) RunUntil(t int64) {
	for s.t < t {
		s.Step()
	}
}

func (s *Sim) updateAvatar(a *avatar, now int64) {
	b := s.scn.Behavior
	switch a.phase {
	case phaseTravel:
		prev := a.pos
		next, reached := a.pos.StepToward(a.target, a.speed)
		a.pos = next
		a.travelled += prev.Dist(next)
		a.movingSecs++
		if reached {
			if s.trySit(a, now) {
				return
			}
			s.pauseFor(a, now)
		}
	case phaseSeated:
		if now >= a.pauseUntil {
			s.standUp(a)
			a.beginTravel(s.destinationFor(a), b)
		}
	case phasePause:
		// Perturbation: investigate a suspicious presence.
		if b.CuriosityProb > 0 && !a.investigating {
			if ext := s.suspiciousExternal(now); ext != nil && a.rng.Bool(b.CuriosityProb) {
				a.beginTravel(s.jitter(ext.pos, 3, a.rng), b)
				a.investigating = true
				return
			}
		}
		if b.MicroMoveProb > 0 && a.rng.Bool(b.MicroMoveProb) {
			step := a.rng.Range(0.3, b.MicroMoveStep)
			prev := a.pos
			a.pos = s.jitter(a.anchor, step, a.rng)
			a.travelled += prev.Dist(a.pos)
			a.movingSecs++
		}
		if b.ChatProb > 0 && a.rng.Bool(b.ChatProb) && s.chatHook != nil {
			s.chatHook(ChatMessage{T: now, From: a.id, Pos: a.pos})
		}
		if now >= a.pauseUntil {
			a.beginTravel(s.destinationFor(a), b)
		}
	}
}

// trySit seats the avatar on a free nearby sit spot, when allowed.
func (s *Sim) trySit(a *avatar, now int64) bool {
	land := s.scn.Land
	b := s.scn.Behavior
	if !land.AllowSit || len(land.SitSpots) == 0 || !a.rng.Bool(b.SitProb) {
		return false
	}
	for i := range land.SitSpots {
		spot := &land.SitSpots[i]
		if spot.Capacity > s.seatedAt(i) && a.pos.DistXY(spot.Pos) <= 10 {
			a.phase = phaseSeated
			a.seat = i
			a.pos = spot.Pos
			a.pauseUntil = now + int64(a.rng.BoundedPareto(b.PauseMin, b.PauseMax, b.PauseAlpha))
			return true
		}
	}
	return false
}

func (s *Sim) seatedAt(spot int) int {
	n := 0
	for _, a := range s.avatars {
		if a.phase == phaseSeated && a.seat == spot {
			n++
		}
	}
	return n
}

func (s *Sim) standUp(a *avatar) { a.seat = -1 }

// removeAvatar takes an avatar out of the resident population without
// recording a logout — the estate hands it to a neighbouring region.
func (s *Sim) removeAvatar(a *avatar) {
	for i, b := range s.avatars {
		if b == a {
			s.avatars = append(s.avatars[:i], s.avatars[i+1:]...)
			return
		}
	}
}

// States appends the externally observable avatar states to buf and
// returns it, sorted by avatar ID. Externals (crawler avatars) are
// included: a monitor sees itself and other monitors on the map, exactly
// as the paper's crawler appeared as an avatar to everyone else.
func (s *Sim) States(buf []AvatarState) []AvatarState {
	buf = buf[:0]
	for _, a := range s.avatars {
		buf = append(buf, AvatarState{ID: a.id, Pos: a.pos, Seated: a.phase == phaseSeated})
	}
	for _, e := range s.externals {
		buf = append(buf, AvatarState{ID: e.id, Pos: e.pos})
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].ID < buf[j].ID })
	return buf
}

// ResidentStates is States restricted to simulated residents, used by
// ground-truth comparisons that must exclude the monitor itself.
func (s *Sim) ResidentStates(buf []AvatarState) []AvatarState {
	buf = buf[:0]
	for _, a := range s.avatars {
		buf = append(buf, AvatarState{ID: a.id, Pos: a.pos, Seated: a.phase == phaseSeated})
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].ID < buf[j].ID })
	return buf
}

// AddExternal admits a monitor-controlled avatar at the given position.
// It consumes a slot under the land's avatar cap, like any login.
func (s *Sim) AddExternal(pos geom.Vec) (trace.AvatarID, error) {
	if len(s.avatars)+len(s.externals) >= s.scn.Land.EffectiveMaxAvatars() {
		return 0, fmt.Errorf("world: land %q full", s.scn.Land.Name)
	}
	s.nextID++
	e := &externalState{
		id:       trace.AvatarID(s.idBase + s.nextID),
		pos:      s.scn.Land.Bounds().Clamp(pos),
		joinedAt: s.t,
		lastMove: s.t,
		lastChat: s.t - suspiciousNoChat, // silent until it chats
	}
	s.externals = append(s.externals, e)
	return e.id, nil
}

// MoveExternal repositions an external avatar, marking it as moving.
func (s *Sim) MoveExternal(id trace.AvatarID, pos geom.Vec) error {
	e := s.external(id)
	if e == nil {
		return fmt.Errorf("world: unknown external avatar %d", id)
	}
	e.pos = s.scn.Land.Bounds().Clamp(pos)
	e.lastMove = s.t
	return nil
}

// ExternalPos returns an external avatar's current (clamped) position.
// The serving layer caches it per session so chat relay and
// area-of-interest queries never rescan the full avatar set.
func (s *Sim) ExternalPos(id trace.AvatarID) (geom.Vec, bool) {
	e := s.external(id)
	if e == nil {
		return geom.Vec{}, false
	}
	return e.pos, true
}

// ExternalChat records a chat utterance by an external avatar and relays
// it through the chat hook.
func (s *Sim) ExternalChat(id trace.AvatarID, text string) error {
	e := s.external(id)
	if e == nil {
		return fmt.Errorf("world: unknown external avatar %d", id)
	}
	e.lastChat = s.t
	if s.chatHook != nil {
		s.chatHook(ChatMessage{T: s.t, From: id, Pos: e.pos, Text: text})
	}
	return nil
}

// RemoveExternal logs an external avatar out.
func (s *Sim) RemoveExternal(id trace.AvatarID) {
	for i, e := range s.externals {
		if e.id == id {
			s.externals = append(s.externals[:i], s.externals[i+1:]...)
			return
		}
	}
}

func (s *Sim) external(id trace.AvatarID) *externalState {
	for _, e := range s.externals {
		if e.id == id {
			return e
		}
	}
	return nil
}

// suspiciousExternal returns an external presence currently reading as a
// bot, if any.
func (s *Sim) suspiciousExternal(now int64) *externalState {
	for _, e := range s.externals {
		if now-e.joinedAt >= suspiciousAfterJoin &&
			now-e.lastMove >= suspiciousNoMove &&
			now-e.lastChat >= suspiciousNoChat {
			return e
		}
	}
	return nil
}
