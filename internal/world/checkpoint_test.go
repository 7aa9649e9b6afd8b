package world

import (
	"context"
	"errors"
	"io"
	"testing"

	"slmob/internal/snap"
	"slmob/internal/trace"
)

// drain collects every remaining snapshot of a source.
func drain(t *testing.T, src *Source) []trace.Snapshot {
	t.Helper()
	var out []trace.Snapshot
	for {
		snap, err := src.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, snap.Clone())
	}
}

// TestSourceCheckpointResumesBitIdentical: a source checkpointed
// mid-stream and restored onto a fresh source continues the exact
// snapshot sequence — every avatar position, seated flag, and arrival
// draw — without replaying the prefix.
func TestSourceCheckpointResumesBitIdentical(t *testing.T) {
	scn := DanceIsland(33)
	scn.Duration = 1200

	whole, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	full := drain(t, whole)

	src, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 60
	for i := 0; i < cut; i++ {
		if _, err := src.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	state, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	rest := drain(t, resumed)
	if len(rest) != len(full)-cut {
		t.Fatalf("resumed source yields %d snapshots, want %d", len(rest), len(full)-cut)
	}
	for i, snap := range rest {
		want := full[cut+i]
		if snap.T != want.T || len(snap.Samples) != len(want.Samples) {
			t.Fatalf("snapshot %d: t=%d n=%d, want t=%d n=%d",
				i, snap.T, len(snap.Samples), want.T, len(want.Samples))
		}
		for j, s := range snap.Samples {
			if s != want.Samples[j] {
				t.Fatalf("snapshot %d sample %d = %+v, want %+v", i, j, s, want.Samples[j])
			}
		}
	}
}

// TestSourceCheckpointSeated: seated avatars (seat index occupancy)
// survive the round trip — the state the avatar capsule alone does not
// carry.
func TestSourceCheckpointSeated(t *testing.T) {
	scn := DanceIsland(7) // the discotheque: AllowSit with many sit spots
	scn.Duration = 3600
	src, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Run until someone is seated.
	seatedAt := -1
	for i := 0; i < 300; i++ {
		snap, err := src.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snap.Samples {
			if s.Seated {
				seatedAt = i
			}
		}
		if seatedAt >= 0 {
			break
		}
	}
	if seatedAt < 0 {
		t.Skip("no avatar sat down in the probe window")
	}
	state, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	seats := 0
	for _, a := range resumed.sim.avatars {
		if a.phase == phaseSeated {
			if a.seat < 0 {
				t.Error("seated avatar restored without a seat")
			}
			seats++
		}
	}
	if seats == 0 {
		t.Error("no seated avatar survived the round trip")
	}
}

// TestSourceRestoreRejects: mismatched scenarios and corrupted blobs are
// errors, never silent acceptance or panics.
func TestSourceRestoreRejects(t *testing.T) {
	scn := DanceIsland(1)
	scn.Duration = 600
	src, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	state, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	// Different seed.
	other := DanceIsland(2)
	other.Duration = 600
	wrong, err := NewSource(other, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.RestoreState(state); err == nil {
		t.Error("restore accepted a checkpoint from a different seed")
	}
	// Different tau.
	wrongTau, err := NewSource(scn, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongTau.RestoreState(state); err == nil {
		t.Error("restore accepted a checkpoint with a different tau")
	}
	// Corruption: flipped byte must be a typed snap error.
	flipped := append([]byte(nil), state...)
	flipped[len(flipped)/2] ^= 0x10
	fresh, err := NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	var se *snap.Error
	if err := fresh.RestoreState(flipped); !errors.As(err, &se) {
		t.Errorf("corrupted restore: err = %v, want *snap.Error", err)
	}
	for _, cut := range []int{0, 3, len(state) / 2} {
		if err := fresh.RestoreState(state[:cut]); !errors.As(err, &se) {
			t.Errorf("truncated restore (%d bytes): err = %v, want *snap.Error", cut, err)
		}
	}
}
