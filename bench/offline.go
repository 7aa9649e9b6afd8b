package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"slmob"
	"slmob/internal/core"
	"slmob/internal/graph"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// paperSegments is how many independently seeded simulations each
// land's day is stitched from: segment j covers hour j of the day, cut
// from a simulation seeded for j whose clock starts paperLeadIn earlier,
// long enough for every session and pause of the opening crowd to have
// ended, so the crowd at that hour is the one a whole day would have.
// One simulated day of a land is a single draw of a heavy-tailed crowd:
// from one seed to the next, analysing it costs up to ±7% more or less,
// and its median snapshot moves further still. Twenty-four independent
// hours keep the work per run, and its latencies, nearly the same for
// every seed while still covering each hour of the day once.
const (
	paperSegments = 24
	paperLeadIn   = 6 * 3600
)

// paperDay analyses the three paper lands, a day each, from binary trace
// files, one stream after another on one goroutine.
func paperDay(ctx context.Context, r *run) error {
	files, err := measureSetup(r, func() ([]string, error) {
		return writePaperDay(ctx, r)
	}, func(files []string) {
		if len(files) > 0 {
			os.RemoveAll(filepath.Dir(files[0]))
		}
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return tracedPasses(r, "paper-day", func(pass int) (string, passCounts, error) {
			return paperDayTracedPass(ctx, r, pass, files)
		}, func() error {
			var streams [][]trace.Snapshot
			for _, p := range files {
				tr, err := trace.ReadFile(p)
				if err != nil {
					return err
				}
				streams = append(streams, tr.Snapshots)
			}
			graphStage(r, streams)
			est := slmob.PaperEstate(r.seed)
			return worldStage(r, est, r.size(21600, 60))
		})
	}
	var lat, rates []float64
	var digests []string
	err = measureUntil(r.seconds, func(int) error {
		start := time.Now()
		ans, err := paperDayPass(ctx, files, &lat)
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		d, simSeconds, err := digestOf(ans, nil)
		if err != nil {
			return err
		}
		digests = append(digests, d)
		rates = append(rates, simSeconds/wall)
		return nil
	})
	if err != nil {
		return err
	}
	r.measuredEnd()
	r.checkDigests("paper-day", digests)
	r.attempted += int64(len(digests))
	r.set("sim_s_per_s", slmob.Median(rates))
	r.set("lat_p50_ms", slmob.Quantile(lat, 0.50))
	r.set("lat_mean_ms", mean(lat))
	return nil
}

// size picks the full-size value, or the tiny one in unit tests.
func (r *run) size(full, tiny int64) int64 {
	if r.tiny {
		return tiny
	}
	return full
}

// writePaperDay simulates the paper lands and writes one binary trace
// file per land and day segment into a fresh directory.
func writePaperDay(ctx context.Context, r *run) ([]string, error) {
	dir, err := os.MkdirTemp(r.dir, "paper-day-")
	if err != nil {
		return nil, err
	}
	day := r.size(slmob.Day, 1200)
	lead := r.size(paperLeadIn, 0)
	seg := day / paperSegments
	var files []string
	for land := 0; land < 3; land++ {
		for j := int64(0); j < paperSegments; j++ {
			scn := slmob.PaperLands(r.seed*paperSegments + uint64(j))[land]
			scn.Arrivals.StartHour = int((j*seg - lead + slmob.Day) % slmob.Day / 3600)
			scn.Duration = lead + seg
			src, err := world.NewSource(scn, slmob.PaperTau)
			if err != nil {
				return nil, err
			}
			tr, err := slmob.CollectSource(ctx, &segmentSource{src: src, from: lead})
			if err != nil {
				return nil, err
			}
			path := filepath.Join(dir, fmt.Sprintf("land%d-seg%d.sltr", land, j))
			if err := slmob.WriteTraceFile(tr, path); err != nil {
				return nil, err
			}
			files = append(files, path)
		}
	}
	return files, nil
}

// segmentSource passes on only the snapshots after from, so a segment is
// cut from its simulation without holding the lead-in.
type segmentSource struct {
	src  *world.Source
	from int64
}

func (s *segmentSource) Next(ctx context.Context) (slmob.Snapshot, error) {
	for {
		snap, err := s.src.Next(ctx)
		if err != nil || snap.T > s.from {
			return snap, err
		}
	}
}

func (s *segmentSource) Info() slmob.SourceInfo { return s.src.Info() }

// paperDayPass streams every file through the façade's analysis. lat
// receives each snapshot's latency: the wall time from the analysis
// asking for the snapshot to it asking for the next one, which covers
// decoding the snapshot and folding it into the analysis.
func paperDayPass(ctx context.Context, files []string, lat *[]float64) ([]*slmob.Analysis, error) {
	ans := make([]*slmob.Analysis, 0, len(files))
	for _, p := range files {
		fs, err := slmob.OpenTraceStream(p)
		if err != nil {
			return nil, err
		}
		an, err := slmob.AnalyzeStream(ctx, &snapTimer{src: fs, lat: lat})
		fs.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		ans = append(ans, an)
	}
	return ans, nil
}

// snapTimer wraps a trace file stream and times each snapshot from one
// Next call to the following one.
type snapTimer struct {
	src  *slmob.TraceFileStream
	prev time.Time
	lat  *[]float64
}

func (s *snapTimer) Next(ctx context.Context) (slmob.Snapshot, error) {
	now := time.Now()
	if !s.prev.IsZero() {
		*s.lat = append(*s.lat, float64(now.Sub(s.prev).Nanoseconds())/1e6)
	}
	s.prev = now
	return s.src.Next(ctx)
}

// Info passes the file's provenance through, so the analysis labels
// itself exactly as it would for the bare stream.
func (s *snapTimer) Info() slmob.SourceInfo { return s.src.Info() }

// paperDayTracedPass runs the same analysis as paperDayPass, calling the
// trace and core packages directly so each call gets its own span.
func paperDayTracedPass(ctx context.Context, r *run, pass int, files []string) (string, passCounts, error) {
	tr := r.tr
	var ans []*core.Analysis
	var pc passCounts
	root := tr.begin(pass, 0, "bench.pass")
	for _, p := range files {
		id := tr.begin(pass, root, "trace.open")
		fs, err := trace.OpenStream(p)
		tr.end(id)
		if err != nil {
			return "", pc, err
		}
		info := fs.Info()
		landSize, err := info.Size()
		if err != nil {
			fs.Close()
			return "", pc, err
		}
		id = tr.begin(pass, root, "core.new")
		a, err := core.NewAnalyzer(info.Land, info.Tau, core.Config{LandSize: landSize})
		tr.end(id)
		if err != nil {
			fs.Close()
			return "", pc, err
		}
		for {
			id = tr.begin(pass, root, "trace.next")
			snap, err := fs.Next(ctx)
			tr.end(id)
			if err == io.EOF {
				break
			}
			if err != nil {
				fs.Close()
				return "", pc, err
			}
			id = tr.begin(pass, root, "core.observe")
			err = a.Observe(snap)
			tr.end(id)
			if err != nil {
				fs.Close()
				return "", pc, err
			}
		}
		id = tr.begin(pass, root, "core.finish")
		an, err := a.Finish()
		tr.end(id)
		id = tr.begin(pass, root, "trace.close")
		fs.Close()
		tr.end(id)
		if err != nil {
			return "", pc, err
		}
		pc.ws.Add(a.WorkspaceStats())
		ans = append(ans, an)
	}
	tr.end(root)
	d, _, err := digestOf(ans, nil)
	for _, an := range ans {
		pc.snapshots += an.Summary.Snapshots
		pc.samples += an.Summary.TotalSamples
	}
	return d, pc, err
}

// cityHour replays an hour of the city estate from memory through the
// region-parallel estate analysis.
func cityHour(ctx context.Context, r *run) error {
	trs, err := measureSetup(r, func() ([]*slmob.Trace, error) {
		est := slmob.CityEstate(r.seed)
		est.Duration = r.size(3600, 120)
		src, err := slmob.NewEstateSource(est, slmob.PaperTau)
		if err != nil {
			return nil, err
		}
		defer src.Estate().Close()
		return slmob.CollectEstateSource(ctx, src)
	}, func([]*slmob.Trace) {})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return tracedPasses(r, "city-hour", func(pass int) (string, passCounts, error) {
			return cityHourTracedPass(ctx, r, pass, trs)
		}, func() error {
			streams := make([][]trace.Snapshot, len(trs))
			for i, tr := range trs {
				streams[i] = tr.Snapshots
			}
			graphStage(r, streams)
			return worldStage(r, slmob.CityEstate(r.seed), r.size(3600, 30))
		})
	}
	var lat, rates []float64
	var digests []string
	err = measureUntil(r.seconds, func(int) error {
		replay, err := trace.NewEstateReplay(nil, trs)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := slmob.AnalyzeEstateStream(ctx, &tickTimer{es: replay, lat: &lat})
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		d, simSeconds, err := digestOf(res.Regions, res.Global)
		if err != nil {
			return err
		}
		digests = append(digests, d)
		rates = append(rates, simSeconds/float64(len(trs))/wall)
		return nil
	})
	if err != nil {
		return err
	}
	r.measuredEnd()
	r.checkDigests("city-hour", digests)
	r.attempted += int64(len(digests))
	r.set("sim_s_per_s", slmob.Median(rates))
	r.set("lat_p50_ms", slmob.Quantile(lat, 0.50))
	r.set("lat_mean_ms", mean(lat))
	return nil
}

// tickTimer wraps an estate source and times each tick from one NextTick
// call to the following one.
type tickTimer struct {
	es   slmob.EstateSource
	prev time.Time
	lat  *[]float64

	// In a traced pass, tr records a trace.next span per call and opens
	// core.finish at end of stream; finish is closed by the caller once
	// the analysis returns.
	tr           *tracer
	pass, parent int
	finish       int
}

func (t *tickTimer) Regions() []slmob.SourceInfo { return t.es.Regions() }

func (t *tickTimer) NextTick(ctx context.Context) (slmob.EstateTick, error) {
	if t.tr != nil {
		id := t.tr.begin(t.pass, t.parent, "trace.next")
		tick, err := t.es.NextTick(ctx)
		t.tr.end(id)
		if err == io.EOF && t.finish == 0 {
			t.finish = t.tr.begin(t.pass, t.parent, "core.finish")
		}
		return tick, err
	}
	now := time.Now()
	if !t.prev.IsZero() {
		*t.lat = append(*t.lat, float64(now.Sub(t.prev).Nanoseconds())/1e6)
	}
	t.prev = now
	return t.es.NextTick(ctx)
}

// cityHourTracedPass runs the same analysis as the façade's
// AnalyzeEstateStream, calling core directly. The estate analyzer
// pipelines its regions internally, so the pass splits into time spent
// fetching ticks (trace.next), feeding the pipeline (core.consume), and
// draining it and assembling the result once the ticks run out
// (core.finish).
func cityHourTracedPass(ctx context.Context, r *run, pass int, trs []*slmob.Trace) (string, passCounts, error) {
	tr := r.tr
	var pc passCounts
	replay, err := trace.NewEstateReplay(nil, trs)
	if err != nil {
		return "", pc, err
	}
	root := tr.begin(pass, 0, "bench.pass")
	id := tr.begin(pass, root, "core.new")
	infos := replay.Regions()
	metas, err := core.RegionMetasFromInfos(infos)
	if err != nil {
		return "", pc, err
	}
	ea, err := core.NewEstateAnalyzer(infos[0].Meta["estate"], metas, infos[0].Tau, core.Config{}, 0)
	tr.end(id)
	if err != nil {
		return "", pc, err
	}
	consume := tr.begin(pass, root, "core.consume")
	src := &tickTimer{es: replay, tr: tr, pass: pass, parent: consume}
	res, err := ea.Consume(ctx, src)
	tr.end(src.finish)
	tr.end(consume)
	tr.end(root)
	if err != nil {
		return "", pc, err
	}
	pc.ws = ea.WorkspaceStats()
	for _, an := range res.Regions {
		pc.snapshots += an.Summary.Snapshots
		pc.samples += an.Summary.TotalSamples
	}
	d, _, err := digestOf(res.Regions, res.Global)
	return d, pc, err
}

// digestOf digests a list of analyses (and an optional estate-global
// one) into one hex sha256, and returns the simulated seconds they
// cover: snapshots × τ, summed.
func digestOf(ans []*slmob.Analysis, global *slmob.Analysis) (string, float64, error) {
	h := sha256.New()
	var simSeconds float64
	if global != nil {
		d, err := slmob.AnalysisDigest(global)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintln(h, "global", d)
	}
	for _, an := range ans {
		d, err := slmob.AnalysisDigest(an)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintln(h, an.Land, d)
		simSeconds += float64(int64(an.Summary.Snapshots) * slmob.PaperTau)
	}
	return hex.EncodeToString(h.Sum(nil)), simSeconds, nil
}

// checkDigests requires every pass to produce the same digest and, for
// seed 1 at full size, the pinned one.
func (r *run) checkDigests(workload string, digests []string) {
	for i, d := range digests {
		r.check(d == digests[0], "%s: pass %d digest %s differs from pass 0 digest %s", workload, i, d, digests[0])
	}
	if r.seed != 1 || r.tiny || len(digests) == 0 {
		return
	}
	pinned, err := loadPinned()
	if err != nil {
		r.check(false, "%s: %v", workload, err)
		return
	}
	want, ok := pinned[workload]
	r.check(ok && want == digests[0], "%s: seed 1 digest %s, pinned %q", workload, digests[0], want)
}

// pinnedDigestsJSON holds the analysis digests of seed 1 at full size,
// keyed by workload.
//
//go:embed testdata/digests.json
var pinnedDigestsJSON []byte

func loadPinned() (map[string]string, error) {
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &pinned); err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	return pinned, nil
}

// passCounts are the per-pass counts a traced offline pass reports.
type passCounts struct {
	snapshots, samples int
	ws                 graph.WorkspaceStats
}

// tracedPasses runs traced passes for the measurement budget, derives the
// per-layer metrics of the median pass from their spans, then runs the
// workload's stage passes.
func tracedPasses(r *run, workload string, pass func(int) (string, passCounts, error), stages func() error) error {
	var digests []string
	var counts []passCounts
	var walls []float64
	cpu0 := cpuSeconds()
	start := time.Now()
	err := measureUntil(r.seconds, func(i int) error {
		t0 := time.Now()
		d, pc, err := pass(i + 1)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		digests = append(digests, d)
		counts = append(counts, pc)
		return nil
	})
	if err != nil {
		return err
	}
	busy := (cpuSeconds() - cpu0) / (time.Since(start).Seconds() * float64(runtime.GOMAXPROCS(0)))
	r.checkDigests(workload, digests)
	r.attempted += int64(len(digests))

	// Report the pass with the median wall time, so the layers reported
	// are those of one real pass and sum to its wall time.
	order := make([]int, len(walls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return walls[order[a]] < walls[order[b]] })
	mid := order[(len(order)-1)/2]
	self := r.tr.selfSeconds(mid + 1)
	var passSeconds float64 // the self times of all spans sum to the root span's duration
	for _, s := range self {
		passSeconds += s
	}
	r.set("bench.pass_s", passSeconds)
	r.set("trace.next_s", self["trace.open"]+self["trace.next"]+self["trace.close"])
	r.set("core.observe_s", self["core.new"]+self["core.observe"]+self["core.consume"])
	r.set("core.finish_s", self["core.finish"])
	r.set("core.snapshots", float64(counts[mid].snapshots))
	r.set("core.samples", float64(counts[mid].samples))
	r.set("core.cpu_busy_frac", busy)
	reportWorkspace(r, counts[mid].ws)
	return stages()
}
