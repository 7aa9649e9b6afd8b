package slmob

// Golden-trace regression gate: a small deterministic simulation trace
// is committed under testdata/ together with its full pinned analysis
// summary. A change that shifts any distribution — contacts, trips,
// sessions, zone occupation — fails loudly here instead of silently
// bending every experiment, and the -update flag re-pins both files
// after an intentional model change.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"slmob/internal/core"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden trace and its pinned analysis")

const (
	goldenTracePath    = "testdata/golden_dance.sltr"
	goldenAnalysisPath = "testdata/golden_dance_analysis.json"
	goldenCkptPath     = "testdata/golden_dance_ckpt.snap"
	goldenSeed         = 42
	goldenDuration     = 1800
	// goldenCkptAt is the snapshot time the committed checkpoint was
	// taken at: mid-way through the golden trace, with contacts and
	// sessions in flight.
	goldenCkptAt = 900
)

// distStats pins a sample distribution as an order-independent digest:
// the count exactly, the median and the sorted sum to float tolerance.
type distStats struct {
	Count  int     `json:"count"`
	Median float64 `json:"median"`
	Sum    float64 `json:"sum"`
}

func digest(xs []float64) distStats {
	if len(xs) == 0 {
		return distStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return distStats{Count: len(s), Median: s[len(s)/2], Sum: sum}
}

type goldenContacts struct {
	Pairs          int       `json:"pairs"`
	Censored       int       `json:"censored"`
	NeverContacted int       `json:"never_contacted"`
	CT             distStats `json:"ct"`
	ICT            distStats `json:"ict"`
	FT             distStats `json:"ft"`
}

// goldenAnalysis is the pinned digest of the full Analysis.
type goldenAnalysis struct {
	Land           string                    `json:"land"`
	Snapshots      int                       `json:"snapshots"`
	DurationSec    int64                     `json:"duration_sec"`
	Unique         int                       `json:"unique"`
	MeanConcurrent float64                   `json:"mean_concurrent"`
	MaxConcurrent  int                       `json:"max_concurrent"`
	Contacts       map[string]goldenContacts `json:"contacts"`
	Sessions       int                       `json:"sessions"`
	TravelTime     distStats                 `json:"travel_time"`
	TravelLength   distStats                 `json:"travel_length"`
	EffectiveTime  distStats                 `json:"effective_travel_time"`
	Zones          distStats                 `json:"zones"`
}

func digestAnalysis(an *Analysis) goldenAnalysis {
	g := goldenAnalysis{
		Land:           an.Land,
		Snapshots:      an.Summary.Snapshots,
		DurationSec:    an.Summary.DurationSec,
		Unique:         an.Summary.Unique,
		MeanConcurrent: an.Summary.MeanConcurrent,
		MaxConcurrent:  an.Summary.MaxConcurrent,
		Contacts:       make(map[string]goldenContacts),
		Sessions:       len(an.Trips.TravelTime),
		TravelTime:     digest(an.Trips.TravelTime),
		TravelLength:   digest(an.Trips.TravelLength),
		EffectiveTime:  digest(an.Trips.EffectiveTravelTime),
		Zones:          digest(an.Zones.Values()),
	}
	for r, cs := range an.Contacts {
		g.Contacts[fmt.Sprintf("%g", r)] = goldenContacts{
			Pairs:          cs.Pairs,
			Censored:       cs.Censored,
			NeverContacted: cs.NeverContacted,
			CT:             digest(cs.CT.Values()),
			ICT:            digest(cs.ICT.Values()),
			FT:             digest(cs.FT.Values()),
		}
	}
	return g
}

func goldenScenario() Scenario {
	scn := DanceIsland(goldenSeed)
	scn.Duration = goldenDuration
	return scn
}

// TestGoldenTraceAnalysisPinned replays the committed trace through the
// full analysis and compares every digest against the pinned values.
func TestGoldenTraceAnalysisPinned(t *testing.T) {
	if *updateGolden {
		tr, err := CollectTrace(goldenScenario(), PaperTau)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceFile(tr, goldenTracePath); err != nil {
			t.Fatal(err)
		}
		// Pin the analysis of the file as stored: the binary codec keeps
		// float32 positions, and the gate replays exactly those.
		fs, err := OpenTraceStream(goldenTracePath)
		if err != nil {
			t.Fatal(err)
		}
		an, err := AnalyzeStream(context.Background(), fs)
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(digestAnalysis(an), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnalysisPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden fixtures regenerated")
	}

	fs, err := OpenTraceStream(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	an, err := AnalyzeStream(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	got := digestAnalysis(an)

	data, err := os.ReadFile(goldenAnalysisPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenAnalysis
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	assertGoldenAnalysis(t, got, want)
}

// assertGoldenAnalysis compares a fresh digest against the pinned one,
// shared by the whole-trace and the checkpoint-resume gates.
func assertGoldenAnalysis(t *testing.T, got, want goldenAnalysis) {
	t.Helper()
	approx := func(what string, g, w float64) {
		t.Helper()
		if diff := math.Abs(g - w); diff > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, want %v", what, g, w)
		}
	}
	same := func(what string, g, w distStats) {
		t.Helper()
		if g.Count != w.Count {
			t.Errorf("%s count = %d, want %d", what, g.Count, w.Count)
		}
		approx(what+" median", g.Median, w.Median)
		approx(what+" sum", g.Sum, w.Sum)
	}

	if got.Land != want.Land || got.Snapshots != want.Snapshots ||
		got.DurationSec != want.DurationSec || got.Unique != want.Unique ||
		got.MaxConcurrent != want.MaxConcurrent {
		t.Errorf("summary = %+v, want %+v", got, want)
	}
	approx("mean concurrent", got.MeanConcurrent, want.MeanConcurrent)
	if len(got.Contacts) != len(want.Contacts) {
		t.Fatalf("contact ranges = %d, want %d", len(got.Contacts), len(want.Contacts))
	}
	for r, w := range want.Contacts {
		g, ok := got.Contacts[r]
		if !ok {
			t.Fatalf("missing contact range %s", r)
		}
		if g.Pairs != w.Pairs || g.Censored != w.Censored || g.NeverContacted != w.NeverContacted {
			t.Errorf("r=%s pairs/censored/never = %d/%d/%d, want %d/%d/%d",
				r, g.Pairs, g.Censored, g.NeverContacted, w.Pairs, w.Censored, w.NeverContacted)
		}
		same("r="+r+" CT", g.CT, w.CT)
		same("r="+r+" ICT", g.ICT, w.ICT)
		same("r="+r+" FT", g.FT, w.FT)
	}
	if got.Sessions != want.Sessions {
		t.Errorf("sessions = %d, want %d", got.Sessions, want.Sessions)
	}
	same("travel time", got.TravelTime, want.TravelTime)
	same("travel length", got.TravelLength, want.TravelLength)
	same("effective travel time", got.EffectiveTime, want.EffectiveTime)
	same("zones", got.Zones, want.Zones)
}

// goldenStreamConfig mirrors AnalyzeStream's labelling of the golden
// trace, so manually driven analyzers produce the same digest.
func goldenStreamConfig(t *testing.T, fs *TraceFileStream) (string, int64, core.Config) {
	t.Helper()
	info := fs.Info()
	size, err := info.Size()
	if err != nil {
		t.Fatal(err)
	}
	return info.Land, info.Tau, core.Config{LandSize: size}
}

// TestGoldenWindowedMergeParity is the windowed-parity gate of the
// acceptance criteria: the golden trace split into windows merges back
// to an Analysis bit-identical to the whole-trace run — whose digest is
// already pinned on disk.
func TestGoldenWindowedMergeParity(t *testing.T) {
	whole := func() *Analysis {
		fs, err := OpenTraceStream(goldenTracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		an, err := AnalyzeStream(context.Background(), fs)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}()

	for _, window := range []int64{300, 450, 3600} {
		fs, err := OpenTraceStream(goldenTracePath)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := AnalyzeWindows(context.Background(), fs, WithWindow(window))
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ws.Merge()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range core.DiffAnalyses(merged, whole) {
			t.Errorf("window=%d: %s", window, d)
		}
	}
}

// TestGoldenCheckpointResume is the kill-and-resume gate: the committed
// checkpoint — taken mid-way through the golden dance trace, contacts
// and sessions in flight — resumes against the rest of the stream and
// reproduces the pinned whole-trace digest exactly. With -update the
// checkpoint fixture is regenerated (the resume digest is pinned by
// golden_dance_analysis.json, shared with the whole-trace gate: resuming
// MUST land on the same digest as never having been killed).
func TestGoldenCheckpointResume(t *testing.T) {
	if *updateGolden {
		fs, err := OpenTraceStream(goldenTracePath)
		if err != nil {
			t.Fatal(err)
		}
		land, tau, cfg := goldenStreamConfig(t, fs)
		a, err := core.NewAnalyzer(land, tau, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			snap, err := fs.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Observe(snap); err != nil {
				t.Fatal(err)
			}
			if snap.T >= goldenCkptAt {
				break
			}
		}
		f, err := os.Create(goldenCkptPath)
		if err != nil {
			t.Fatal(err)
		}
		// The file stream carries no restorable state: the checkpoint
		// holds the analyzer alone, and resume replays the file, skipping
		// the analysed prefix by snapshot time.
		if err := Checkpoint(f, a, fs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		fs.Close()
		t.Log("golden checkpoint regenerated")
	}

	fs, err := OpenTraceStream(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	an, err := AnalyzeStream(context.Background(), fs, WithResumeFrom(goldenCkptPath))
	if err != nil {
		t.Fatal(err)
	}
	got := digestAnalysis(an)

	data, err := os.ReadFile(goldenAnalysisPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenAnalysis
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	assertGoldenAnalysis(t, got, want)
}

// TestGoldenCheckpointBytesPinned checkpoints the golden analysis at
// goldenCkptAt and compares the bytes with the committed fixture, so the
// fixture is always what the code writes (-update rewrites both).
func TestGoldenCheckpointBytesPinned(t *testing.T) {
	fs, err := OpenTraceStream(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	land, tau, cfg := goldenStreamConfig(t, fs)
	a, err := core.NewAnalyzer(land, tau, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		snap, err := fs.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Observe(snap); err != nil {
			t.Fatal(err)
		}
		if snap.T >= goldenCkptAt {
			break
		}
	}
	var buf bytes.Buffer
	if err := Checkpoint(&buf, a, fs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenCkptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("checkpoint at t=%d (%d bytes) differs from %s (%d bytes); rerun with -update",
			goldenCkptAt, buf.Len(), goldenCkptPath, len(want))
	}
}

// TestGoldenTraceMatchesSimulation guards the fixture itself: the
// committed trace must be exactly what the current simulation produces
// for the pinned seed, so the golden gate cannot drift away from the
// code it is meant to watch. (After an intentional model change, run
// `go test -run TestGolden -update .` and commit both files.)
func TestGoldenTraceMatchesSimulation(t *testing.T) {
	tr, err := CollectTrace(goldenScenario(), PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := ReadTraceFile(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk.Snapshots) != len(tr.Snapshots) {
		t.Fatalf("committed trace has %d snapshots, simulation produces %d",
			len(disk.Snapshots), len(tr.Snapshots))
	}
	for i, snap := range tr.Snapshots {
		dsnap := disk.Snapshots[i]
		if dsnap.T != snap.T || len(dsnap.Samples) != len(snap.Samples) {
			t.Fatalf("snapshot %d: t=%d n=%d, want t=%d n=%d",
				i, dsnap.T, len(dsnap.Samples), snap.T, len(snap.Samples))
		}
		for j, s := range snap.Samples {
			d := dsnap.Samples[j]
			// The binary codec stores float32 positions; compare at that
			// resolution.
			if d.ID != s.ID || d.Seated != s.Seated ||
				float32(d.Pos.X) != float32(s.Pos.X) ||
				float32(d.Pos.Y) != float32(s.Pos.Y) ||
				float32(d.Pos.Z) != float32(s.Pos.Z) {
				t.Fatalf("snapshot %d sample %d = %+v, want %+v", i, j, d, s)
			}
		}
	}
}
