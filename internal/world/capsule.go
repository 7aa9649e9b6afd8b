package world

import (
	"encoding/binary"
	"fmt"
	"math"

	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// The avatar capsule is the serialised form of a mid-session avatar, as
// world checkpoints store it: everything needed to resume the avatar
// exactly where it left off — identity, kinematic state, session timers,
// ground-truth odometry, and the avatar's personal random stream. Saving
// the random state is what makes a resumed simulation bit-identical to an
// uninterrupted one: the avatar's next destination and pause draws
// continue the same sequence.
//
// Layout (big-endian, fixed size): a version byte followed by the fields
// in declaration order. Positions are float64 — unlike the coarse map,
// a resumed avatar must not lose precision, or its trajectory diverges
// from the uninterrupted simulation.

// capsuleVersion guards the capsule layout.
const capsuleVersion = 1

// capsuleSize is the exact encoded length.
const capsuleSize = 1 + // version
	8 + // id
	3*8 + // pos
	1 + // phase
	3*8 + // target
	8 + // speed
	8 + // pauseUntil
	8 + // loginT
	8 + // logoutAt
	3*8 + // anchor
	1 + // flags (wanderer, firstLeg, investigating)
	4 + // wanderLegs
	8 + // movingSecs
	8 + // travelled
	4*8 // rng state

// encodeAvatar packs the avatar into a fresh capsule.
func encodeAvatar(a *avatar) []byte {
	buf := make([]byte, 0, capsuleSize)
	buf = append(buf, capsuleVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.id))
	buf = appendVec(buf, a.pos)
	buf = append(buf, byte(a.phase))
	buf = appendVec(buf, a.target)
	buf = binary.BigEndian.AppendUint64(buf, floatBits(a.speed))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.pauseUntil))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.loginT))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.logoutAt))
	buf = appendVec(buf, a.anchor)
	var flags byte
	if a.wanderer {
		flags |= 1
	}
	if a.firstLeg {
		flags |= 2
	}
	if a.investigating {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.wanderLegs))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.movingSecs))
	buf = binary.BigEndian.AppendUint64(buf, floatBits(a.travelled))
	st := a.rng.State()
	for _, w := range st {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// decodeAvatar unpacks a capsule into a fresh avatar. The seat and
// crossTo fields are not carried: checkpoints store them beside the
// capsule, and validate them against the restored land.
func decodeAvatar(data []byte) (*avatar, error) {
	if len(data) != capsuleSize {
		return nil, fmt.Errorf("world: avatar capsule is %d bytes, want %d", len(data), capsuleSize)
	}
	if data[0] != capsuleVersion {
		return nil, fmt.Errorf("world: unsupported avatar capsule version %d", data[0])
	}
	d := data[1:]
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(d)
		d = d[8:]
		return v
	}
	vec := func() geom.Vec {
		return geom.V(bitsFloat(u64()), bitsFloat(u64()), bitsFloat(u64()))
	}
	a := &avatar{seat: -1, crossTo: -1}
	a.id = trace.AvatarID(u64())
	a.pos = vec()
	ph := d[0]
	d = d[1:]
	if ph > byte(phaseSeated) {
		return nil, fmt.Errorf("world: avatar capsule has unknown phase %d", ph)
	}
	a.phase = phase(ph)
	a.target = vec()
	a.speed = bitsFloat(u64())
	a.pauseUntil = int64(u64())
	a.loginT = int64(u64())
	a.logoutAt = int64(u64())
	a.anchor = vec()
	flags := d[0]
	d = d[1:]
	a.wanderer = flags&1 != 0
	a.firstLeg = flags&2 != 0
	a.investigating = flags&4 != 0
	a.wanderLegs = int(int32(binary.BigEndian.Uint32(d)))
	d = d[4:]
	a.movingSecs = int64(u64())
	a.travelled = bitsFloat(u64())
	var st [4]uint64
	for i := range st {
		st[i] = u64()
	}
	a.rng = rng.New(0)
	a.rng.Restore(st)
	return a, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

func appendVec(buf []byte, v geom.Vec) []byte {
	buf = binary.BigEndian.AppendUint64(buf, floatBits(v.X))
	buf = binary.BigEndian.AppendUint64(buf, floatBits(v.Y))
	return binary.BigEndian.AppendUint64(buf, floatBits(v.Z))
}
