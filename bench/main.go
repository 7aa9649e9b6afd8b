// Command bench is slmob's end-to-end benchmark. It runs one named
// workload per process — two offline analysis workloads and two served
// estate workloads — checks that every output is correct, and prints
// each metric as "workload metric value unit", followed by the machine
// record and, as the last line, a JSON result:
//
//	bash bench/run.sh --workload paper-day --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded. With --trace 1 the same workload runs with spans
// around every call the benchmark makes into an internal package, and
// the metrics are the per-layer ones derived from those spans; the
// spans themselves are written as JSONL to
// .bench_build/spans-<workload>.jsonl. Without --workload every
// workload runs, each in its own child process.
//
// README.md documents the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slmob"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are emitted by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_s", "sim-s/s"},
	{"lat_p50_ms", "ms"},
	{"lat_mean_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// layerMetrics are emitted by every workload with --trace 1. A layer the
// workload never calls reads 0.
var layerMetrics = []metricDef{
	{"bench.pass_s", "s"},
	{"trace.next_s", "s"},
	{"core.observe_s", "s"},
	{"core.finish_s", "s"},
	{"core.snapshots", "count"},
	{"core.samples", "count"},
	{"core.cpu_busy_frac", "frac"},
	{"graph.apply_s", "s"},
	{"graph.diameter_s", "s"},
	{"graph.clustering_s", "s"},
	{"graph.builds", "count"},
	{"graph.incremental_frac", "frac"},
	{"graph.diam_reuse_frac", "frac"},
	{"graph.cc_reuse_frac", "frac"},
	{"world.step_us", "us"},
	{"world.handoffs", "count"},
	{"world.blocked_handoffs", "count"},
	{"server.tick_us", "us"},
	{"server.route_serve_us", "us"},
	{"server.tick_max_ms", "ms"},
	{"server.intervals", "count"},
	{"server.over_budget", "count"},
	{"server.clock_lag_ms", "ms"},
	{"slp.ping_p50_ms", "ms"},
	{"slp.ping_p99_ms", "ms"},
	{"slp.push_lag_p50_ms", "ms"},
	{"slp.push_lag_p99_ms", "ms"},
	{"slp.pushes", "count"},
	{"slp.observer_bytes_per_push", "B"},
	{"slp.aoi_bytes_per_push", "B"},
	{"analytics.cumulative_p50_ms", "ms"},
	{"analytics.window_p50_ms", "ms"},
	{"analytics.stats_p50_ms", "ms"},
	{"analytics.queries", "count"},
	{"analytics.dropped", "count"},
	{"analytics.windows", "count"},
	{"gen.late_p99_ms", "ms"},
	{"trace_overhead_frac", "frac"},
}

// workload is one named input set; BENCHMARK.json and README.md give
// the reason each is in the benchmark. run sets up, measures for
// r.seconds and checks outputs.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"paper-day", paperDay},
	{"city-hour", cityHour},
	{"city-served", cityServed},
	{"paper-live", paperLive},
}

// setupReps is how many times each workload sets itself up; setup_s is
// the median. Every set-up takes a quarter of a second or more, so five
// cost a few seconds and outvote a set-up slowed by a burst of load.
const setupReps = 5

// run carries one workload execution: its inputs and what it reports.
type run struct {
	seed    uint64
	seconds float64
	// tiny shrinks every input to a size the unit tests can afford.
	tiny bool
	// tr records spans; nil in an end-to-end run.
	tr *tracer
	// dir is a scratch directory for trace files, removed afterwards.
	dir string

	// measured is when set-up ended and measuring began.
	measured time.Time

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// rng returns one of the run's random streams. Each is drawn from the
// seed, so the same seed gives the same inputs.
func (r *run) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(r.seed, stream)) }

// The random streams of the inputs the simulations do not make: each
// open-loop client's arrival times.
const (
	pingStream = iota + 1
	queryStream
)

// set records one metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// measureSetup runs setup repeatedly, keeping the last result and
// releasing earlier ones with drop, and records the median as setup_s.
func measureSetup[T any](r *run, setup func() (T, error), drop func(T)) (T, error) {
	var times []float64
	var last T
	reps := setupReps
	if r.tiny {
		reps = 2 // still exercises drop
	}
	for len(times) < reps {
		if len(times) > 0 {
			drop(last)
		}
		// Each set-up starts from a collected heap, so no set-up pays for
		// collecting an earlier one's garbage.
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	r.set("setup_s", slmob.Median(times))
	// Collect the set-ups' garbage now rather than during the measurement.
	runtime.GC()
	r.measured = time.Now()
	return last, nil
}

// measuredEnd marks the end of the measured phase: the peak memory
// reported is the peak up to here, before any output check runs.
func (r *run) measuredEnd() {
	r.set("max_rss_mb", maxRSSMB())
}

// measureUntil runs pass repeatedly and stops once another pass would
// likely end more than half a pass past the budget. It always runs at
// least twice, so every pass's output has another to match.
func measureUntil(seconds float64, pass func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := pass(i); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		if i > 0 && elapsed+elapsed/float64(i+1)/2 >= seconds {
			return nil
		}
	}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// machine records where a result was measured. Results from unlike
// machines are not comparable.
type machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// sameShape reports whether two machines can be compared: everything
// but the commit must match.
func (m machine) sameShape(o machine) bool {
	return m.Cores == o.Cores && m.GOMAXPROCS == o.GOMAXPROCS && m.Go == o.Go && m.CPU == o.CPU
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (empty: every workload, each in a child process)")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long one run measures, in wall seconds")
		traced   = flag.Int("trace", 0, "1: record spans (written to .bench_build/spans-<workload>.jsonl) and report per-layer metrics; 0: report end-to-end metrics")
		baseline = flag.String("baseline", "", "saved output of an earlier run to compare against; refused unless measured on a like machine")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	r := &run{seed: *seed, seconds: *seconds}
	if *traced == 1 {
		r.tr = newTracer()
	}
	res, err := execute(context.Background(), wl, r, ".bench_build")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "spans-"+wl.name+".jsonl")
		if err := r.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", r.tr.count(), path)
	}
	m := thisMachine()
	for _, md := range metricSet(r.tr != nil) {
		fmt.Printf("%s %s %s %s\n", wl.name, md.name, strconv.FormatFloat(res.Metrics[md.name].Value, 'g', -1, 64), md.unit)
	}
	mj, _ := json.Marshal(m) // a struct of strings and ints always encodes
	fmt.Printf("machine %s\n", mj)
	code := 0
	if *baseline != "" {
		code = compareBaseline(*baseline, m, wl.name, r.tr != nil, res)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", wl.name, p)
	}
	out, _ := json.Marshal(res) // finite floats, checked in execute
	fmt.Println(string(out))
	if !res.Correct {
		code = 1
	}
	os.Exit(code)
}

func metricSet(traced bool) []metricDef {
	if traced {
		return layerMetrics
	}
	return e2eMetrics
}

// execute runs one workload in a scratch directory under parent and
// assembles its result. Every metric of the run's set must be present
// and finite.
func execute(ctx context.Context, wl *workload, r *run, parent string) (*result, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	r.metrics = map[string]float64{}
	if err := wl.run(ctx, r); err != nil {
		return nil, err
	}
	if r.tr != nil {
		wall := time.Since(r.measured).Seconds()
		r.set("trace_overhead_frac", float64(r.tr.count())*spanCostSeconds()/wall)
		for _, md := range layerMetrics {
			if _, ok := r.metrics[md.name]; !ok {
				r.set(md.name, 0) // a layer this workload never calls
			}
		}
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, md := range metricSet(r.tr != nil) {
		v, ok := r.metrics[md.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", md.name, v)
		}
		res.Metrics[md.name] = metricValue{Value: v, Unit: md.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// runAll runs every workload in its own child process with the same
// flags, passes their metric lines through, and ends with one JSON line
// whose metrics are keyed "workload.metric".
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", wl.name}, args...)...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result (%v)\n", wl.name, runErr)
			total.Correct = false
			continue
		}
		for _, line := range lines[:len(lines)-1] {
			fmt.Println(line)
		}
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[wl.name+"."+k] = v
		}
	}
	out, _ := json.Marshal(total)
	fmt.Println(string(out))
	if !total.Correct {
		return 1
	}
	return 0
}

// compareBaseline prints each metric of this run beside the same
// workload's value in a saved earlier output (of this workload alone or
// of every workload). It refuses, loudly and with exit code 3, when the
// two runs were measured on unlike machines.
func compareBaseline(path string, m machine, workload string, traced bool, res *result) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
		return 1
	}
	defer f.Close()
	var old machine
	var oldRes result
	haveMachine := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "machine "); ok {
			haveMachine = json.Unmarshal([]byte(rest), &old) == nil
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
		return 1
	}
	if !haveMachine || json.Unmarshal([]byte(last), &oldRes) != nil {
		fmt.Fprintf(os.Stderr, "bench: baseline %s holds no machine record or result\n", path)
		return 1
	}
	if !m.sameShape(old) {
		fmt.Fprintf(os.Stderr, "\n!!! bench: COMPARISON REFUSED: baseline measured on %+v, this run on %+v\n"+
			"!!! numbers from unlike machines are not comparable; measure both commits on one machine\n\n", old, m)
		return 3
	}
	for _, md := range metricSet(traced) {
		ov, ok := oldRes.Metrics[md.name]
		if !ok {
			// A saved run of every workload keys metrics by workload.
			if ov, ok = oldRes.Metrics[workload+"."+md.name]; !ok {
				continue
			}
		}
		nv := res.Metrics[md.name].Value
		change := math.NaN()
		if ov.Value != 0 {
			change = 100 * (nv - ov.Value) / ov.Value
		}
		fmt.Printf("compare %s %s %g -> %g (%+.1f%%)\n", workload, md.name, ov.Value, nv, change)
	}
	return 0
}
