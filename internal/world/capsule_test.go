package world

import (
	"testing"

	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// TestAvatarCapsuleRoundTrip: every field the destination needs — and
// the avatar's personal random stream — must survive the capsule.
func TestAvatarCapsuleRoundTrip(t *testing.T) {
	src := rng.New(99)
	for i := 0; i < 1000; i++ {
		src.Uint64() // advance mid-stream
	}
	a := &avatar{
		id:            trace.AvatarID(1<<40 | 1234),
		pos:           geom.V(12.25, 200.5, 1.75),
		rng:           src,
		phase:         phaseTravel,
		target:        geom.V(255.5, 0.25, 0),
		speed:         3.3125,
		pauseUntil:    77777,
		loginT:        123,
		logoutAt:      99999,
		anchor:        geom.V(1, 2, 3),
		wanderer:      true,
		wanderLegs:    4,
		firstLeg:      true,
		seat:          2, // not carried: checkpoints store it beside the capsule
		crossTo:       1, // not carried: checkpoints store it beside the capsule
		movingSecs:    456,
		travelled:     1234.0625,
		investigating: true,
	}
	b, err := decodeAvatar(encodeAvatar(a))
	if err != nil {
		t.Fatal(err)
	}
	if b.id != a.id || b.pos != a.pos || b.phase != a.phase || b.target != a.target ||
		b.speed != a.speed || b.pauseUntil != a.pauseUntil || b.loginT != a.loginT ||
		b.logoutAt != a.logoutAt || b.anchor != a.anchor || b.wanderer != a.wanderer ||
		b.wanderLegs != a.wanderLegs || b.firstLeg != a.firstLeg ||
		b.movingSecs != a.movingSecs || b.travelled != a.travelled ||
		b.investigating != a.investigating {
		t.Errorf("decoded avatar = %+v, want %+v", b, a)
	}
	if b.seat != -1 || b.crossTo != -1 {
		t.Errorf("seat/crossTo = %d/%d, want -1/-1", b.seat, b.crossTo)
	}
	// The random stream continues exactly where the source left it.
	for i := 0; i < 16; i++ {
		want := a.rng.Uint64()
		if got := b.rng.Uint64(); got != want {
			t.Fatalf("rng draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestCapsuleDecodeRejectsGarbage covers the defensive paths.
func TestCapsuleDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeAvatar(nil); err == nil {
		t.Error("nil capsule accepted")
	}
	if _, err := decodeAvatar(make([]byte, capsuleSize-1)); err == nil {
		t.Error("short capsule accepted")
	}
	bad := encodeAvatar(&avatar{rng: rng.New(1), seat: -1, crossTo: -1})
	bad[0] = 99
	if _, err := decodeAvatar(bad); err == nil {
		t.Error("bad version accepted")
	}
	bad = encodeAvatar(&avatar{rng: rng.New(1), seat: -1, crossTo: -1})
	bad[1+8+24] = 7 // phase byte out of range
	if _, err := decodeAvatar(bad); err == nil {
		t.Error("bad phase accepted")
	}
}
