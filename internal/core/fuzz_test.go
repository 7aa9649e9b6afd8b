package core

import (
	"bytes"
	"errors"
	"testing"

	"slmob/internal/snap"
)

// fuzzSeedCheckpoints builds valid checkpoint blobs of both kinds, plus
// characteristic corruptions, so the fuzzer starts from deep in the
// decoder.
func fuzzSeedCheckpoints(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte

	a, err := NewAnalyzer("fuzz", 10, Config{Ranges: []float64{10, 80}})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range windowSnapshots(60) {
		if err := a.Observe(s); err != nil {
			f.Fatal(err)
		}
	}
	blob, err := a.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)

	wa, err := NewWindowedAnalyzer("fuzz", 10, 150, Config{Ranges: []float64{10}})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range windowSnapshots(80) {
		if err := wa.Observe(s); err != nil {
			f.Fatal(err)
		}
	}
	wblob, err := wa.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, wblob)

	// Fresh (nearly empty) analyzer.
	e, err := NewAnalyzer("empty", 10, Config{})
	if err != nil {
		f.Fatal(err)
	}
	eblob, err := e.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, eblob, blob[:len(blob)/2], []byte("SLCK"), nil)

	// Enough pairs that a restore grows the pair table past its
	// minimum size.
	g, err := NewAnalyzer("grown", 10, Config{Ranges: []float64{30}})
	if err != nil {
		f.Fatal(err)
	}
	grown, _, _ := eventStream(2, 1, -1, nil)
	for _, s := range grown {
		if err := g.Observe(s); err != nil {
			f.Fatal(err)
		}
	}
	if g.ranges[0].ct.table.n <= pairTableMinSize {
		f.Fatalf("seed holds %d pairs, want more than %d", g.ranges[0].ct.table.n, pairTableMinSize)
	}
	gblob, err := g.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, gblob)
	return seeds
}

// FuzzRestoreAnalyzer pins the decoder's robustness contract: arbitrary
// input — truncated, corrupted, version-skewed, or hostile — must either
// restore cleanly or return a typed error. It must never panic, and a
// successful restore must yield a checkpointable analyzer (state
// invariants intact) whose checkpoints are canonical: restoring its
// checkpoint and checkpointing again gives the same bytes.
func FuzzRestoreAnalyzer(f *testing.F) {
	for _, seed := range fuzzSeedCheckpoints(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, restore := range []func([]byte) error{
			func(b []byte) error {
				a, err := RestoreAnalyzer(b)
				if err == nil {
					// A restored analyzer must be functional: it can
					// checkpoint again, reaching a fixed point, and
					// finish.
					checkpointFixedPoint(t, a, RestoreAnalyzer)
					if _, ferr := a.Finish(); ferr != nil {
						t.Fatalf("restored analyzer cannot finish: %v", ferr)
					}
				}
				return err
			},
			func(b []byte) error {
				wa, err := RestoreWindowedAnalyzer(b)
				if err == nil {
					checkpointFixedPoint(t, wa, RestoreWindowedAnalyzer)
					if wa.RequiresHook() {
						wa.OnWindow(func(int64, *Analysis) {})
					}
					if _, ferr := wa.Finish(); ferr != nil {
						t.Fatalf("restored windowed analyzer cannot finish: %v", ferr)
					}
				}
				return err
			},
		} {
			err := restore(data)
			if err == nil {
				continue
			}
			var se *snap.Error
			if !errors.As(err, &se) {
				t.Fatalf("restore returned untyped error %T: %v", err, err)
			}
		}
	})
}

// checkpointFixedPoint checkpoints a restored analyzer, restores that
// checkpoint and checkpoints again: the two checkpoints must be
// byte-identical.
func checkpointFixedPoint[T interface{ Checkpoint() ([]byte, error) }](t *testing.T, restored T, restore func([]byte) (T, error)) {
	t.Helper()
	c1, err := restored.Checkpoint()
	if err != nil {
		t.Fatalf("restored analyzer cannot re-checkpoint: %v", err)
	}
	again, err := restore(c1)
	if err != nil {
		t.Fatalf("a restored analyzer's checkpoint does not restore: %v", err)
	}
	c2, err := again.Checkpoint()
	if err != nil {
		t.Fatalf("re-restored analyzer cannot checkpoint: %v", err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("checkpoint is not a fixed point: %d bytes, then %d", len(c1), len(c2))
	}
}
