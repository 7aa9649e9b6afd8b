package world

import (
	"fmt"
	"math/rand"
	"testing"
)

// differentialEstates enumerates the shapes the parallel-vs-serial
// differential sweeps: the calibrated presets plus handoff-heavy
// variants whose migration probabilities are cranked far above any
// preset, so refusals, teleport rng draws, and border turn-backs all
// fire constantly.
func differentialEstates(seed uint64) []EstateConfig {
	paper := PaperEstate(seed)
	paper.Duration = 1800

	mainland := MainlandEstate(seed + 1)
	mainland.Duration = 900

	hot := PaperEstate(seed + 2)
	hot.Name = "Hot Borders"
	hot.Duration = 1800
	hot.CrossProb = 0.05
	hot.TeleportProb = 0.02
	// A cap just above the warmup population makes admissions race
	// capacity: many handoffs are refused, exercising the blocked/refuse
	// path and the fact that a departure from a region frees a slot for a
	// later arrival in the same tick.
	for i := range hot.Regions {
		hot.Regions[i].Land.MaxAvatars = hot.Regions[i].Warmup + 5
	}

	return []EstateConfig{paper, mainland, hot}
}

// estateFingerprint advances the estate to the given time and folds
// every region's resident states (IDs, exact float positions, seating)
// plus the migration counters into a comparable string.
func estateFingerprint(e *EstateSim, until int64) string {
	e.RunUntil(until)
	s := fmt.Sprintf("t=%d cross=%d tele=%d blocked=%d pop=%d",
		e.Time(), e.Crossings(), e.Teleports(), e.BlockedHandoffs(), e.Population())
	var buf []AvatarState
	for i := 0; i < e.NumRegions(); i++ {
		buf = e.Region(i).ResidentStates(buf[:0])
		s += fmt.Sprintf("|r%d:%d[", i, len(buf))
		for _, st := range buf {
			s += fmt.Sprintf("%d@%x,%x;%v ", st.ID,
				st.Pos.X, st.Pos.Y, st.Seated)
		}
		s += "]"
	}
	return s
}

// TestParallelStepDifferential is the tentpole's determinism gate:
// stepping an estate with any SimWorkers count must be bit-identical
// to the serial loop — same avatar IDs and float-exact positions in
// every region at every sampled time, and the same crossing, teleport,
// and refusal counters. Seeds, estate shapes, and worker counts are
// randomized so the sweep covers handoff-heavy scenarios rather than
// one lucky trajectory.
func TestParallelStepDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(0x51e57a7e))
	for round := 0; round < 3; round++ {
		seed := uint64(rnd.Int63n(1 << 20))
		for _, cfg := range differentialEstates(seed) {
			serialCfg := cfg
			serialCfg.SimWorkers = 1
			serial, err := NewEstateSim(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			workerCounts := []int{2, 3 + rnd.Intn(6)}
			sims := make([]*EstateSim, len(workerCounts))
			for i, w := range workerCounts {
				pcfg := cfg
				pcfg.SimWorkers = w
				p, err := NewEstateSim(pcfg)
				if err != nil {
					t.Fatal(err)
				}
				if p.StepWorkers() < 2 {
					t.Fatalf("%s: SimWorkers=%d built a serial estate", cfg.Name, w)
				}
				defer p.Close()
				sims[i] = p
			}
			// Compare at several intermediate times, not just the end, so
			// a transient divergence that later cancels out still fails.
			for _, frac := range []int64{4, 2, 1} {
				until := cfg.Duration / frac
				want := estateFingerprint(serial, until)
				for i, p := range sims {
					if got := estateFingerprint(p, until); got != want {
						t.Fatalf("%s seed=%d workers=%d t=%d diverged from serial:\n got %.200s\nwant %.200s",
							cfg.Name, seed, workerCounts[i], until, got, want)
					}
				}
			}
			// Vacuity guard: the capped shape must actually exercise the
			// refusal and teleport paths, or the sweep proves nothing.
			if cfg.Name == "Hot Borders" &&
				(serial.BlockedHandoffs() == 0 || serial.Teleports() == 0 || serial.Crossings() == 0) {
				t.Fatalf("Hot Borders seed=%d: blocked=%d teleports=%d crossings=%d — differential is vacuous",
					seed, serial.BlockedHandoffs(), serial.Teleports(), serial.Crossings())
			}
		}
	}
}
