package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"testing"

	"slmob/internal/snap"
	"slmob/internal/trace"
)

// sliceSource streams a pre-built snapshot list.
type sliceSrc struct {
	snaps []trace.Snapshot
	i     int
}

func sliceSource(snaps []trace.Snapshot) *sliceSrc { return &sliceSrc{snaps: snaps} }

func (s *sliceSrc) Next(ctx context.Context) (trace.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return trace.Snapshot{}, err
	}
	if s.i >= len(s.snaps) {
		return trace.Snapshot{}, io.EOF
	}
	snap := s.snaps[s.i]
	s.i++
	return snap, nil
}

// TestCheckpointResumeDigestIdentical pins the tentpole guarantee: a run
// killed mid-stream and resumed from its checkpoint finishes with an
// Analysis identical to an uninterrupted run — contacts mid-flight, open
// sessions, censoring, everything.
func TestCheckpointResumeDigestIdentical(t *testing.T) {
	snaps := windowSnapshots(400)
	cfg := Config{Ranges: []float64{10, 80}}
	whole := runPlain(t, snaps, cfg)

	for _, cut := range []int{1, 57, 200, 399} {
		a, err := NewAnalyzer("win", 10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps[:cut] {
			if err := a.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := a.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := RestoreAnalyzer(blob)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if got, want := b.ResumePoint(), snaps[cut-1].T; got != want {
			t.Fatalf("cut=%d: resume point %d, want %d", cut, got, want)
		}
		// Feed the whole stream again: observed snapshots must be skipped
		// by time, the rest resumed exactly.
		for _, s := range snaps {
			if s.T <= b.resumeFrom {
				continue
			}
			if err := b.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		resumed, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range DiffAnalyses(resumed, whole) {
			t.Errorf("cut=%d: %s", cut, d)
		}
	}
}

// TestCheckpointResumeWindowed: the same kill-and-resume guarantee for
// the windowed analyzer, including windows collected before the cut.
func TestCheckpointResumeWindowed(t *testing.T) {
	snaps := windowSnapshots(300)
	cfg := Config{Ranges: []float64{10}}
	wholeSeries := runWindowed(t, snaps, 250, cfg)

	wa, err := NewWindowedAnalyzer("win", 10, 250, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps[:140] {
		if err := wa.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := wa.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := RestoreWindowedAnalyzer(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		if s.T <= wb.a.resumeFrom {
			continue
		}
		if err := wb.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := wb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Windows) != len(wholeSeries.Windows) {
		t.Fatalf("resumed windows = %d, want %d", len(resumed.Windows), len(wholeSeries.Windows))
	}
	for i := range wholeSeries.Windows {
		for _, d := range DiffAnalyses(resumed.Windows[i], wholeSeries.Windows[i]) {
			t.Errorf("window %d: %s", i, d)
		}
	}
	// And the merged series still matches the uninterrupted whole run.
	mergedResumed, err := resumed.Merge()
	if err != nil {
		t.Fatal(err)
	}
	whole := runPlain(t, snaps, cfg)
	for _, d := range DiffAnalyses(mergedResumed, whole) {
		t.Errorf("merged: %s", d)
	}
}

// TestWindowedRecheckpointKeepsHookMode: an analyzer restored from a
// hook-mode checkpoint and checkpointed again before OnWindow is still a
// hook-mode analyzer, so its second restore must also refuse to run
// until the hook is re-registered.
func TestWindowedRecheckpointKeepsHookMode(t *testing.T) {
	wa, err := NewWindowedAnalyzer("hooked", 10, 250, Config{Ranges: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	wa.OnWindow(func(k int64, an *Analysis) {})
	for _, s := range windowSnapshots(60) {
		if err := wa.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := wa.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 2; gen++ {
		wb, err := RestoreWindowedAnalyzer(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !wb.RequiresHook() {
			t.Fatalf("restore %d: RequiresHook() = false, want true", gen)
		}
		if blob, err = wb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointDecoderRejects pins the typed-error contract for every
// corruption mode: wrong payload kind, version skew, truncation, bit
// flips, and garbage all return a *snap.Error (or a validation error),
// never panic.
func TestCheckpointDecoderRejects(t *testing.T) {
	a, err := NewAnalyzer("x", 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range windowSnapshots(50) {
		if err := a.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	wantSnapErr := func(name string, data []byte) {
		t.Helper()
		_, err := RestoreAnalyzer(data)
		var se *snap.Error
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *snap.Error", name, err)
		}
		_, err = RestoreWindowedAnalyzer(data)
		if !errors.As(err, &se) {
			t.Errorf("%s (windowed): err = %v, want *snap.Error", name, err)
		}
	}
	wantSnapErr("empty", nil)
	wantSnapErr("garbage", []byte("definitely not a checkpoint"))
	for _, cut := range []int{4, 10, len(blob) / 2, len(blob) - 1} {
		wantSnapErr("truncated", blob[:cut])
	}
	for _, i := range []int{5, 20, len(blob) / 2} {
		flipped := append([]byte(nil), blob...)
		flipped[i] ^= 0x40
		wantSnapErr("flipped", flipped)
	}
	// A windowed blob handed to the plain restorer (and vice versa) is a
	// typed kind mismatch.
	wa, err := NewWindowedAnalyzer("x", 10, 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wblob, err := wa.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreAnalyzer(wblob); err == nil {
		t.Error("plain restore accepted a windowed checkpoint")
	}
	var se *snap.Error
	if _, err := RestoreWindowedAnalyzer(blob); !errors.As(err, &se) {
		t.Errorf("windowed restore of plain blob: %v", err)
	}

	wantKind := func(name string, kind snap.ErrKind, err error) {
		t.Helper()
		var se *snap.Error
		if !errors.As(err, &se) || se.Kind != kind {
			t.Errorf("%s: err = %v, want *snap.Error of kind %v", name, err, kind)
		}
	}
	// Version skew: a version-1 payload is refused before its body is
	// read, whatever the body holds.
	w := snap.NewWriter(KindAnalyzer)
	w.Uvarint(1)
	a.encodeState(w)
	_, err = RestoreAnalyzer(w.Finish())
	wantKind("version 1", snap.KindVersion, err)
	w = snap.NewWriter(KindWindowed)
	w.Uvarint(1)
	w.Varint(100) // window
	w.Bool(true)  // started
	w.Varint(0)   // curIdx
	w.Bool(false) // hooked
	w.Varint(0)   // first
	w.Uvarint(0)  // no collected windows
	a.encodeState(w)
	_, err = RestoreWindowedAnalyzer(w.Finish())
	wantKind("version 1 (windowed)", snap.KindVersion, err)

	// Pair records out of key order, or repeated, are malformed.
	_, err = RestoreAnalyzer(withPairRecords(t, blob, a.ranges[0].ct, 1, 0))
	wantKind("swapped pairs", snap.KindMalformed, err)
	_, err = RestoreAnalyzer(withPairRecords(t, blob, a.ranges[0].ct, 0, 0))
	wantKind("repeated pair", snap.KindMalformed, err)
}

// withPairRecords returns the checkpoint blob with the first two pair
// records of ct's section replaced by its records i and j, resealed with
// a valid checksum.
func withPairRecords(t *testing.T, blob []byte, ct *contactTracker, i, j int) []byte {
	t.Helper()
	tb := encodeTrackerBytes(ct)
	hdr := len(snap.NewWriter(KindAnalyzer).Finish()) - 4
	sec := tb[hdr : len(tb)-4]
	base := bytes.Index(blob, sec)
	r, err := snap.NewReader(tb)
	if err != nil || base < 0 {
		t.Fatalf("tracker section not found in the checkpoint (%v)", err)
	}
	for n := r.Count(2); n > 0; n-- {
		r.Uvarint()
		r.Varint()
	}
	var at []int // record boundaries within sec
	for n := r.Count(6); n > 0; n-- {
		at = append(at, len(sec)-r.Remaining())
		r.Uvarint()
		r.Uvarint()
		r.Varint()
		r.Varint()
		r.Uvarint()
	}
	at = append(at, len(sec)-r.Remaining())
	if r.Err() != nil || len(at) < 3 {
		t.Fatalf("tracker section holds %d pairs (%v), want at least 2", len(at)-1, r.Err())
	}
	rec := func(k int) []byte { return sec[at[k]:at[k+1]] }
	body := slices.Concat(blob[:base+at[0]], rec(i), rec(j), blob[base+at[2]:len(blob)-4])
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestCheckpointResumeAtTimeZero: a stream whose first snapshot is at
// t=0, checkpointed after only that snapshot, must resume by skipping
// the replayed t=0 — lastT == 0 is a legitimate resume point, not the
// "no resume" sentinel.
func TestCheckpointResumeAtTimeZero(t *testing.T) {
	snaps := windowSnapshots(30)
	for i := range snaps {
		snaps[i].T -= 10 // shift so the first snapshot lands on t=0
	}
	cfg := Config{Ranges: []float64{10}}
	whole := runPlain(t, snaps, cfg)

	a, err := NewAnalyzer("win", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(snaps[0]); err != nil {
		t.Fatal(err)
	}
	blob, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreAnalyzer(blob)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := b.Consume(context.Background(), sliceSource(snaps))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DiffAnalyses(resumed, whole) {
		t.Error(d)
	}
}

// TestWindowedEmptyStreamMerges: a windowed run over an empty stream
// yields one empty window whose merge equals the plain empty analysis,
// keeping the windowed path a superset of the plain one.
func TestWindowedEmptyStreamMerges(t *testing.T) {
	cfg := Config{Ranges: []float64{10, 80}}
	a, err := NewAnalyzer("empty", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wa, err := NewWindowedAnalyzer("empty", 10, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Windows) != 1 {
		t.Fatalf("empty stream yields %d windows, want 1", len(ws.Windows))
	}
	merged, err := ws.Merge()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DiffAnalyses(merged, whole) {
		t.Error(d)
	}
}

// TestWindowedCheckpointRejectsBadCursor: a checksum-valid blob with a
// crafted negative window cursor must be a typed error — otherwise the
// first resumed Observe would spin emitting ~2^60 empty windows.
func TestWindowedCheckpointRejectsBadCursor(t *testing.T) {
	w := snap.NewWriter(KindWindowed)
	w.Uvarint(checkpointVersion)
	w.Varint(3600)     // window
	w.Bool(true)       // started
	w.Varint(-1 << 60) // curIdx: hostile
	w.Bool(false)      // hooked
	w.Varint(0)        // first
	w.Uvarint(0)       // no collected windows
	_, err := RestoreWindowedAnalyzer(w.Finish())
	var se *snap.Error
	if !errors.As(err, &se) || se.Kind != snap.KindMalformed {
		t.Fatalf("err = %v, want malformed *snap.Error", err)
	}
}

// TestCheckpointAfterFinish: a finished analyzer cannot checkpoint.
func TestCheckpointAfterFinish(t *testing.T) {
	a, err := NewAnalyzer("x", 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(); err == nil {
		t.Error("Checkpoint after Finish succeeded")
	}
}

// Two checkpoints of identical state must be byte-identical: every map
// iteration on the encode path goes through sortedKeys, so serialized
// bytes never depend on Go's randomised map order. This is the
// byte-level strengthening of the digest-level golden gates (decoders
// were always order-agnostic; encoders now are too).
func TestCheckpointBytesReproducible(t *testing.T) {
	tr := syntheticTrace()
	a, err := NewAnalyzer(tr.Land, tr.Tau, Config{Ranges: []float64{10}, ZoneSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Snapshots {
		if err := a.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two checkpoints of identical state differ: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestCheckpointResumeBytesDifferential pins canonical checkpoints: an
// analyzer restored mid-stream and fed the rest of the stream writes,
// after every later snapshot, the same checkpoint bytes as the run that
// was never interrupted, and finishes with the same digest. The cuts
// fall with contacts open, just after a pair table grew and just after
// a churn fallback rebuilt the graphs — the points where a checkpoint
// that followed the table's layout would drift.
func TestCheckpointResumeBytesDifferential(t *testing.T) {
	snaps, _, _ := eventStream(3, 240, 40, []int{70, 120, 200})
	cfg := Config{Ranges: []float64{10, 80}}
	a, err := NewAnalyzer("bytes", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := make([][]byte, len(snaps))
	openAt, grownAt, fellBackAt := -1, -1, -1
	for k, s := range snaps {
		slots := len(a.ranges[1].ct.table.slots)
		rebuilds := a.WorkspaceStats().FullRebuilds
		if err := a.Observe(s); err != nil {
			t.Fatal(err)
		}
		if ckpts[k], err = a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		switch {
		case k == 0:
		case grownAt < 0 && len(a.ranges[1].ct.table.slots) > slots:
			grownAt = k
		case fellBackAt < 0 && a.WorkspaceStats().FullRebuilds > rebuilds:
			fellBackAt = k
		case openAt < 0 && a.ranges[0].ct.open > 0 && a.ranges[1].ct.open > 0:
			openAt = k
		}
	}
	if openAt < 0 || grownAt < 0 || fellBackAt < 0 {
		t.Fatalf("cut points: open=%d grown=%d fallback=%d; want all found", openAt, grownAt, fellBackAt)
	}
	whole, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := AnalysisDigest(whole)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{openAt, grownAt, fellBackAt} {
		b, err := RestoreAnalyzer(ckpts[cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for k := cut; k < len(snaps); k++ {
			if k > cut {
				if err := b.Observe(snaps[k]); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := b.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, ckpts[k]) {
				t.Fatalf("cut %d: checkpoint after snapshot %d differs from the uninterrupted run's", cut, k)
			}
		}
		resumed, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AnalysisDigest(resumed); err != nil || got != wantDigest {
			t.Fatalf("cut %d: resumed digest %s (%v), want %s", cut, got, err, wantDigest)
		}
	}
}
