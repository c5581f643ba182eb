// Command ringbench is the repository's end-to-end and per-layer benchmark.
// It drives the system from outside through its public entry points
// (campaign.RunAll, serve.New(...).Handler() on loopback, store.Open and
// fleet.Run) over four workloads, checks every output, and prints one JSON
// result as its last line of standard output.
//
//	go build -o ringbench . && ./ringbench -root .. --workload sweep --seed 1 --seconds 10 --trace 0
//
// or, from the repository root, bash ringbench/run.sh --workload sweep ...
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a layer-by-layer replay adds spans around the calls into each layer and
// the result carries the per-layer metrics.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/obs"
)

// params sizes one invocation.  defaultParams are the benchmark's sizes;
// the tests shrink them.
type params struct {
	seed      int64
	window    time.Duration
	setups    int // set-ups per run; setup_s is their median
	trace     bool
	tmp       string // scratch root for stores, removed at exit
	traceDir  string // where a traced run writes its spans
	replayMax int    // scenarios the layer-by-layer replay covers

	sweepSizes []int
	sweepSeeds int

	serveSizes []int
	serveRate  float64 // offered /v1/run requests per second (open loop)

	warmSizes []int
	warmSeeds int
	warmCap   int // memo capacity after the restart, well below the orbit count

	fleetSizes []int
	fleetSeeds int
}

// serveRate is the frozen open-loop rate of serve-symmetric, an eighth of
// what two keep-alive connections sustain on the reference 2-vCPU host
// (README.md, "Why serve-symmetric is not in BENCHMARK.json").
const serveRate = 1500

func defaultParams() params {
	return params{
		setups:     5,
		replayMax:  1152,
		sweepSizes: []int{8, 32, 128},
		sweepSeeds: 12,
		serveSizes: []int{8, 16, 32},
		serveRate:  serveRate,
		warmSizes:  []int{8, 16, 32},
		warmSeeds:  40,
		warmCap:    256,
		fleetSizes: []int{8, 16, 32},
		fleetSeeds: 12,
	}
}

// run is what one workload invocation measured with tracing off.
type run struct {
	setup     []float64 // seconds per set-up
	window    time.Duration
	delivered int         // records delivered and checked in the window
	attempted int         // operations attempted
	failed    int         // failed records, non-2xx, transport errors, check mismatches
	lat       []float64   // per-operation latency in ms, +Inf when failed
	passLat   [][]float64 // of pass-based workloads: operation i's latency in each pass
	rates     []float64   // records per second of each pass, for pass-based workloads
	problems  []string    // output-check failures, for the report

	replaySet []campaign.Scenario // scenarios the replay re-derives
	want      map[int][]byte      // untraced export line per scenario index
	hook      perScenario         // extra per-scenario replay step (serve)
	layer     map[string]float64  // workload-specific per-layer figures
	cleanup   func()

	t0       time.Time
	rss      []float64        // peak resident MiB of each second of the window
	stopRSS  func() []float64 // ends the RSS sampler
	rt0, rt1 runtimeSample
	en0, en1 engine.Counters
	ev0, ev1 uint64
}

func newRun() *run { return &run{layer: map[string]float64{}, cleanup: func() {}} }

// start opens a measured window of nominal length window.  Like a Go
// benchmark, it collects the set-up's garbage first, so every window starts
// from the same heap.
func (r *run) start(window time.Duration) {
	runtime.GC()
	r.ev0 = obs.Default.Stats().Published
	r.en0 = engine.CounterSnapshot()
	r.rt0 = readRuntime()
	r.stopRSS = sampleRSS(min(time.Second, window))
	r.t0 = time.Now()
}

// stop closes the measured window.  Peak memory is sampled only inside the
// window, so set-up and the checking that follows do not count.
func (r *run) stop() {
	r.window = time.Since(r.t0)
	r.rss = r.stopRSS()
	r.rt1 = readRuntime()
	r.en1 = engine.CounterSnapshot()
	r.ev1 = obs.Default.Stats().Published
}

// endPass closes one pass of a pass-based workload: the latencies appended
// to lat since the last pass move to passLat, operation by operation.  Every
// pass must run the same operations in the same order.
func (r *run) endPass() {
	for i, x := range r.lat {
		if i == len(r.passLat) {
			r.passLat = append(r.passLat, nil)
		}
		r.passLat[i] = append(r.passLat[i], x)
	}
	r.lat = r.lat[:0]
}

// latencies returns the latency of every operation of the window.  On a
// pass-based workload an operation's latency is its median over the passes,
// or +Inf if it failed in any pass.
func (r *run) latencies() []float64 {
	if len(r.passLat) == 0 {
		return r.lat
	}
	out := make([]float64, 0, len(r.passLat))
	for _, xs := range r.passLat {
		lat := median(xs)
		if slices.Contains(xs, math.Inf(1)) {
			lat = math.Inf(1)
		}
		out = append(out, lat)
	}
	return out
}

// fail records a failed operation with an explanation.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, p params) (*run, error)

var workloads = map[string]workloadFunc{
	"sweep":           sweepWorkload,
	"serve-symmetric": serveWorkload,
	"warm-restart":    warmWorkload,
	"fleet-2w":        fleetWorkload,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports, end-to-end then per-layer.
// serve-symmetric's own figures (serveUnits) are printed but not part of
// the result: the workload is not in BENCHMARK.json (README.md, "Why
// serve-symmetric is not in BENCHMARK.json").
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"scenarios_per_s": "scenarios/s",
	"run_p50_ms":      "ms",
	"run_p99_ms":      "ms",
	"peak_rss_mb":     "MB",
}

var perLayerUnits = map[string]string{
	"ring.rounds":                "rounds/scenario",
	"ring.rounds_per_crossing":   "rounds",
	"ring.ns_per_round":          "ns",
	"task.run_us":                "us",
	"task.verify_us":             "us",
	"engine.allocs_per_scenario": "allocs/scenario",
	"engine.bytes_per_scenario":  "B/scenario",
	"runtime.gc_cpu_fraction":    "ratio",
	"runtime.gc_cycles":          "count",
	"netgen.generate_us":         "us",
	"canon.transform_us":         "us",
	"canon.canonicalize_us":      "us",
	"memo.probe_us":              "us",
	"memo.reuse_ratio":           "ratio",
	"memo.computes":              "count",
	"memo.evictions":             "count",
	"store.open_ms":              "ms",
	"store.boot_scan_mb_per_s":   "MB/s",
	"store.get_us":               "us",
	"store.put_us":               "us",
	"store.bytes_per_record":     "B",
	"store.space_amp":            "ratio",
	"serve.throttled":            "count",
	"serve.failed":               "count",
	"campaign.encode_us":         "us",
	"fleet.overhead_ms":          "ms",
	"fleet.leases":               "count",
	"fleet.ms_per_lease":         "ms",
	"fleet.fails":                "count",
	"obs.events_published":       "count",
	"trace.overhead_ratio":       "ratio",
}

var serveUnits = map[string]string{
	"serve.hit_p50_us":    "us",
	"serve.miss_p50_us":   "us",
	"serve.http_us":       "us",
	"loadgen.late_p99_ms": "ms",
}

// measure runs one workload invocation end to end: set-up, the measured
// window, the output checks, the layer-by-layer replay (spans only when
// p.trace) and the metric assembly.
func measure(ctx context.Context, name string, p params) (result, report, error) {
	var rp report
	wf, ok := workloads[name]
	if !ok {
		return result{}, rp, fmt.Errorf("unknown workload %q (want sweep, serve-symmetric, warm-restart or fleet-2w)", name)
	}
	r, err := wf(ctx, p)
	if err != nil {
		return result{}, rp, err
	}
	defer r.cleanup()

	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	set := r.replaySet
	if len(set) > p.replayMax {
		set = set[:p.replayMax]
	}
	rep, err := replay(ctx, set, r.want, tr, r.hook)
	if err != nil {
		return result{}, rp, err
	}
	for _, m := range rep.mismatches {
		r.fail(1, "%s", m)
	}

	res := result{Metrics: map[string]metric{}}
	vals := map[string]float64{}
	units := endToEndUnits
	// Throughput and memory are medians over the window's passes or
	// seconds, and an operation's latency is its median over the passes,
	// so one stall in a run moves them little.  The latency percentiles
	// are over every operation of the window.
	throughput := float64(r.delivered) / r.window.Seconds()
	if len(r.rates) > 0 {
		throughput = median(r.rates)
	}
	if !p.trace {
		vals["setup_s"] = median(r.setup)
		vals["scenarios_per_s"] = throughput
		lat := r.latencies()
		vals["run_p50_ms"] = finite(percentile(lat, 50))
		vals["run_p99_ms"] = finite(percentile(lat, 99))
		vals["peak_rss_mb"] = median(r.rss)
	} else {
		units = perLayerUnits
		if vals, err = layerMetrics(ctx, p, r, set, rep, tr, throughput); err != nil {
			return result{}, rp, err
		}
		writeBreakdown(os.Stdout, tr.byName())
		if err := tr.save(filepath.Join(p.traceDir, fmt.Sprintf("%s-seed%d.json", name, p.seed))); err != nil {
			return result{}, rp, err
		}
	}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: vals[name], Unit: unit}
	}
	rp.extra = map[string]metric{}
	for name, unit := range serveUnits {
		if v, ok := vals[name]; ok {
			rp.extra[name] = metric{Value: v, Unit: unit}
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	rp.problems = r.problems
	return res, rp, nil
}

// report is what a run prints besides its result.
type report struct {
	problems []string          // output-check failures
	extra    map[string]metric // figures outside BENCHMARK.json
}

// layerMetrics assembles the per-layer figures of a traced run: the span
// self times of the replay, the kernel, memo and store probes, the runtime
// and engine counters of the untraced window, and the workload's own
// figures.  A layer the workload does not exercise reports 0.
func layerMetrics(ctx context.Context, p params, r *run, set []campaign.Scenario, rep replayed, tr *tracer, throughput float64) (map[string]float64, error) {
	perScen := func(v float64) float64 {
		if r.delivered == 0 {
			return 0
		}
		return v / float64(r.delivered)
	}
	vals := map[string]float64{}
	dRounds := float64(r.en1.Rounds - r.en0.Rounds)
	dCross := float64(r.en1.LeapBatches - r.en0.LeapBatches)
	vals["ring.rounds"] = perScen(dRounds)
	if dCross > 0 {
		vals["ring.rounds_per_crossing"] = dRounds / dCross
	}
	nsRound, err := ringReplay(rep.jobs, p.seed, tr)
	if err != nil {
		return nil, err
	}
	vals["ring.ns_per_round"] = nsRound
	vals["engine.allocs_per_scenario"] = perScen(float64(r.rt1.allocObjects - r.rt0.allocObjects))
	vals["engine.bytes_per_scenario"] = perScen(float64(r.rt1.allocBytes - r.rt0.allocBytes))
	if d := r.rt1.totalCPU - r.rt0.totalCPU; d > 0 {
		vals["runtime.gc_cpu_fraction"] = (r.rt1.gcCPU - r.rt0.gcCPU) / d
	}
	vals["runtime.gc_cycles"] = float64(r.rt1.gcCycles - r.rt0.gcCycles)
	vals["obs.events_published"] = float64(r.ev1 - r.ev0)

	bad, err := memoProbe(ctx, set, r.want, tr)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		r.fail(1, "%s", b)
	}
	dir, err := scratchDir(p.tmp, "probe-store-")
	if err != nil {
		return nil, err
	}
	sr, bad, err := storeProbe(dir, rep.keys, rep.vals, tr)
	os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		r.fail(1, "%s", b)
	}
	vals["store.open_ms"], vals["store.boot_scan_mb_per_s"] = sr.openMS, sr.bootMBps
	vals["store.bytes_per_record"], vals["store.space_amp"] = sr.bytesPerRec, sr.spaceAmp

	st := tr.byName()
	for span, name := range map[string]string{
		"task.run": "task.run_us", "task.verify": "task.verify_us", "netgen.generate": "netgen.generate_us",
		"canon.transform": "canon.transform_us", "canon.canonicalize": "canon.canonicalize_us",
		"store.get": "store.get_us", "store.put": "store.put_us", "campaign.encode": "campaign.encode_us",
	} {
		vals[name] = meanUS(st, span)
	}
	vals["memo.probe_us"] = p50US(st, "memo.probe")
	// The workload's own figures (its real store, serve, loadgen and fleet
	// layers) override the generic probes.
	for k, v := range r.layer {
		vals[k] = v
	}
	if hit, ok := r.layer["serve.hit_p50_us"]; ok {
		vals["serve.http_us"] = hit - vals["memo.probe_us"]
	}
	vals["trace.overhead_ratio"] = throughput / (float64(rep.n) / rep.wall.Seconds())
	return vals, nil
}

func main() {
	workload := flag.String("workload", "", "workload: sweep, serve-symmetric, warm-restart or fleet-2w")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	root := flag.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
	flag.Parse()
	correct, err := mainErr(*workload, *seed, *seconds, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// mainErr runs one invocation and prints its result; correct is false when
// an output check failed.
func mainErr(workload string, seed int64, seconds int, trace bool, root string) (correct bool, err error) {
	if seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1")
	}
	p := defaultParams()
	p.seed, p.window, p.trace = seed, time.Duration(seconds)*time.Second, trace
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return false, err
	}
	p.tmp, p.traceDir = tmp, filepath.Join(build, "traces")
	defer os.RemoveAll(tmp)

	fp := hostFingerprint(root, tmp)
	fp.Workload, fp.Seed, fp.Seconds, fp.Trace = workload, seed, seconds, trace
	if workload == "serve-symmetric" {
		fp.OfferedRPS = p.serveRate
	}
	res, rp, err := measure(context.Background(), workload, p)
	if err != nil {
		return false, err
	}
	for _, pr := range rp.problems {
		fmt.Fprintln(os.Stderr, "check failed:", pr)
	}
	for _, ms := range []map[string]metric{res.Metrics, rp.extra} {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("# %-28s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("# %-28s %14.6g %s (%d of %d)\n", "error_ratio", ratio, "ratio", res.Failed, res.Attempted)
	fpLine, _ := json.Marshal(map[string]fingerprint{"fingerprint": fp})
	fmt.Printf("# %s\n", fpLine)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// drawSeeds returns k distinct positive scenario seeds derived from the
// workload seed.
func drawSeeds(rng *rand.Rand, k int) []int64 {
	seen := make(map[int64]bool, k)
	out := make([]int64, 0, k)
	for len(out) < k {
		s := 1 + rng.Int63n(1<<30)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
