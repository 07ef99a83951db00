// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload: a fixed list of work generated from --seed, driven
// through the same public entry points `flatsim` (experiments.Cell) and
// `flatsim serve` (serve.Server over loopback HTTP) use. Every output is
// checked, and the last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (names in
// endToEndMetrics). With --trace 1 the same work runs once untraced and is
// then replayed layer by layer under spans recorded from this package, and
// the metrics are the per-layer ones (perLayerMetrics). Runs are
// fixed-work: --seconds only sizes the work list (see units), it never
// stops a run early. README.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"hit_p90_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed by every traced run, on every workload; a
// layer the workload does not reach reports 0.
var perLayerMetrics = []metricSpec{
	{"topo.build_ms", "ms"},
	{"topo.builds", "count"},
	{"metrics.paths_ms", "ms"},
	{"metrics.server_pairs", "count"},
	{"traffic.gen_ms", "ms"},
	{"traffic.commodities", "count"},
	{"mcf.solve_ms", "ms"},
	{"mcf.solves", "count"},
	{"mcf.phases", "count"},
	{"mcf.dijkstras", "count"},
	{"mcf.ns_per_dijkstra", "ns"},
	{"mcf.warm_frac", "frac"},
	{"mcf.dijkstras.warm", "count"},
	{"mcf.dijkstras.cold", "count"},
	{"mcf.dijkstras.fat-tree", "count"},
	{"mcf.dijkstras.flat-tree", "count"},
	{"mcf.dijkstras.two-stage-rg", "count"},
	{"mcf.dijkstras.random-graph", "count"},
	{"mcf.max_dual_gap", "frac"},
	{"mcf.approx_frac", "frac"},
	{"experiments.cell_ms", "ms"},
	{"serve.lookup_ms", "ms"},
	{"serve.compute_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.entries", "count"},
	{"store.bytes", "bytes"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.shared", "count"},
	{"serve.sheds", "count"},
	{"serve.errors", "count"},
	{"serve.miss_overhead_ms", "ms"},
	{"proc.wall_s", "s"},
	{"proc.cpu_s", "s"},
	{"proc.alloc_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"host.ref_ms", "ms"},
	{"trace.run_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.match_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

// deterministicCounters are the per-layer metrics that must repeat exactly
// for a fixed seed (TestCountersRepeat pins them).
var deterministicCounters = []string{
	"topo.builds", "metrics.server_pairs", "traffic.commodities",
	"mcf.solves", "mcf.phases", "mcf.dijkstras", "mcf.warm_frac",
	"mcf.dijkstras.warm", "mcf.dijkstras.cold",
	"mcf.dijkstras.fat-tree", "mcf.dijkstras.flat-tree",
	"mcf.dijkstras.two-stage-rg", "mcf.dijkstras.random-graph",
	"serve.hits", "serve.misses", "store.entries", "store.bytes",
}

// setupRepeats is how many times each run sets up; setup_s is the median.
const setupRepeats = 3

// workloads maps a --workload name to its driver.
var workloads = map[string]func(*run) error{
	"paths":       runPaths,
	"alltoall":    runAllToAll,
	"serve-mixed": runServeMixed,
}

// plan sizes the work each workload generates. defaultPlan is what the
// command runs; tests shrink it.
type plan struct {
	// pathsKMin and pathsKMax bound the Figure 5/6 sweep.
	pathsKMin, pathsKMax int
	// allToAllKMax is the top of the Figure 8 sweep (kmin 4).
	allToAllKMax int
	// serveKMax is the top of the Figure 7 sweep serve-mixed requests
	// (kmin 4).
	serveKMax int
	// unitSeconds sizes the work list: it holds round(--seconds / unit)
	// units, so the work stays a pure function of the command line. A unit
	// is one Figure 5+6 pass, one Figure 8 table, or one serve-mixed miss
	// with its nine hits. On a 2-core x86-64 box a pass takes about 1.2 s
	// and a miss about 0.04 s at two clients, so those runs take about
	// --seconds; a table takes 8-10 s, twice its unit, so that an alltoall
	// run averages over four table seeds (one table's cost varies by up
	// to 20% with its seed).
	unitSeconds map[string]float64
	// units, when positive, overrides the --seconds sizing.
	units int
}

var defaultPlan = plan{
	pathsKMin: 16, pathsKMax: 24,
	allToAllKMax: 8,
	serveKMax:    8,
	unitSeconds:  map[string]float64{"paths": 1.4, "alltoall": 5, "serve-mixed": 0.04},
}

// run is one benchmark process's state.
type run struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	plan     plan
	// dir is a scratch directory under .bench_build owned by this run.
	dir string

	attempted, failed int
	problems          []string

	setups        []float64 // seconds per set-up
	runS          float64
	hitMs, missMs []float64
	// rssMB is the peak RSS of each window of work (a Figure 5+6 pass, a
	// Figure 8 table, the serve-mixed session).
	rssMB []float64

	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

// units is the number of work units this run executes.
func (r *run) units() int {
	if r.plan.units > 0 {
		return r.plan.units
	}
	n := int(math.Round(float64(r.seconds) / r.plan.unitSeconds[r.workload]))
	if n < 1 {
		n = 1
	}
	return n
}

// op records one attempted operation; a non-empty problem marks it failed.
func (r *run) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, problem)
		}
	}
}

// setup times one set-up.
func (r *run) setup(f func() error) error {
	t0 := time.Now()
	if err := f(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the JSON result from the run's measurements.
func (r *run) result() result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
		return res
	}
	if len(r.rssMB) == 0 {
		r.rssMB = []float64{peakRSSMB()}
	}
	e2e := map[string]float64{
		"setup_s":     median(r.setups),
		"run_s":       r.runS,
		"hit_p90_ms":  quantile(r.hitMs, 0.9),
		"miss_p50_ms": quantile(r.missMs, 0.5),
		"miss_p90_ms": quantile(r.missMs, 0.9),
		"ok_frac":     float64(r.attempted-r.failed) / float64(max(r.attempted, 1)),
		"peak_rss_mb": median(r.rssMB),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
	}
	return res
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current resident size, so peakRSSWindowMB reads the peak of one window
// of work. It reports false where /proc/self does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSWindowMB reads VmHWM, the peak RSS since the last resetPeakRSS.
func peakRSSWindowMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// rssWindow runs f as one window of work and records its peak RSS.
func (r *run) rssWindow(f func()) {
	ok := resetPeakRSS()
	f()
	if mb, read := peakRSSWindowMB(); ok && read {
		r.rssMB = append(r.rssMB, mb)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// refSink keeps hostRefMs's loop from being optimized away.
var refSink uint64

// hostRefMs times a fixed integer loop: a witness of how fast the host ran
// this run, independent of the program under test.
func hostRefMs() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: paths, alltoall or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the work list is a pure function of it")
	seconds := flag.Int("seconds", 20, "sizes the fixed work list (about this long on the reference box)")
	trace := flag.Int("trace", 0, "1 replays the work under per-layer spans and prints per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload paths|alltoall|serve-mixed --seed N --seconds S --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		plan: defaultPlan,
		dir:  filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
	}
	res, err := execute(r, drive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload with the host witness around it and returns
// its result. The run's scratch directory is removed on every path.
func execute(r *run, drive func(*run) error) (result, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(r.dir)
	refStart := hostRefMs()
	r.layer = map[string]float64{}
	if err := drive(r); err != nil {
		return result{}, err
	}
	refEnd := hostRefMs()
	r.layer["host.ref_ms"] = (refStart + refEnd) / 2
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d ops, %d failed, run %.3fs, host.ref %.1f/%.1f ms, cpu %.2fs\n",
		r.workload, r.seed, r.attempted, r.failed, r.runS, refStart, refEnd, cpuSeconds())
	return r.result(), nil
}
