package world

import (
	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// phase is the avatar state-machine phase.
type phase int

const (
	phaseTravel phase = iota
	phasePause
	phaseSeated
)

// avatar is the internal per-user simulation state.
type avatar struct {
	id  trace.AvatarID
	pos geom.Vec
	rng *rng.Source

	phase      phase
	target     geom.Vec
	speed      float64
	pauseUntil int64
	loginT     int64
	logoutAt   int64

	// anchor is the pause location; micro-moves jitter around it rather
	// than random-walking away, which keeps dancers on the dance floor.
	anchor geom.Vec

	// wanderLegs counts remaining tour legs for wanderer avatars.
	wanderer   bool
	wanderLegs int

	// firstLeg marks the leg from the telehub: fresh visitors pick their
	// first destination from the land map rather than by proximity, so
	// distance-decay gravity does not apply to it.
	firstLeg bool

	// seat is the occupied sit-spot index, or -1.
	seat int

	// crossTo is the estate region index the avatar is walking a border
	// toward, or -1. Single-land simulations never set it.
	crossTo int

	// movingSecs accumulates ground-truth effective travel time.
	movingSecs int64
	// travelled accumulates ground-truth path length in metres.
	travelled float64

	// investigating is set while the avatar walks toward a suspicious
	// presence (the crawler-perturbation behaviour).
	investigating bool
}

// AvatarState is the externally visible state of one avatar, as a monitor
// would observe it.
type AvatarState struct {
	ID  trace.AvatarID
	Pos geom.Vec
	// Seated mirrors the Second Life quirk: monitors reading the wire
	// protocol see {0,0,0} for seated avatars; the flag carries the truth.
	Seated bool
}

// pickSpeed draws a leg speed.
func (a *avatar) pickSpeed(b Behavior) float64 {
	if a.rng.Bool(b.RunProb) {
		return b.RunSpeed * a.rng.Range(0.9, 1.1)
	}
	return b.WalkSpeed * a.rng.Range(0.9, 1.1)
}

// beginTravel aims the avatar at a new target.
func (a *avatar) beginTravel(target geom.Vec, b Behavior) {
	a.phase = phaseTravel
	a.target = target
	a.speed = a.pickSpeed(b)
	a.seat = -1
	a.investigating = false
}

// beginPause halts the avatar for a bounded-Pareto duration.
func (a *avatar) beginPause(now int64, b Behavior) {
	a.phase = phasePause
	a.anchor = a.pos
	a.pauseUntil = now + int64(a.rng.BoundedPareto(b.PauseMin, b.PauseMax, b.PauseAlpha))
	a.investigating = false
}
