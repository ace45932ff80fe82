// Command perfbench is the repository benchmark: three workloads (dse,
// dse-verified, serve) that drive the compile flows through their public
// entry points, check every output, and print one JSON result line.
//
//	perfbench --workload dse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run adds spans and reports the per-layer
// metrics. See README.md for what each workload and metric measures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the engine pool size and the number of load clients: the
// reference machine has two cores.
const workers = 2

// endToEnd lists every end-to-end metric with its unit; each workload
// reports all of them (README.md gives the per-workload definitions).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"configs_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"sweep_ms_p50", "ms"},
	{"sweep_ms_p90", "ms"},
	{"stored_ms_p50", "ms"},
	{"stored_ms_p90", "ms"},
	{"new_ms_p50", "ms"},
	{"new_ms_p90", "ms"},
	{"qor_latency_geomean_cycles", "cycles"},
	{"qor_area_geomean_lut", "lut"},
	{"success_share", "share"},
	{"peak_rss_mb", "MB"},
}

// Stage and pass names as the flows report them to their hooks.
var (
	flowStages    = []string{"mlir-opt", "lowering", "translate", "adaptor", "llvm-opt", "synthesis", "emit-hlscpp", "c-frontend"}
	adaptorOnly   = []string{"lowering", "translate", "adaptor", "llvm-opt"}
	cxxOnly       = []string{"emit-hlscpp", "c-frontend"}
	mlirPasses    = []string{"hls-mark-top", "hls-pipeline-innermost", "hls-mark-unroll", "affine-loop-unroll", "hls-array-partition-all", "hls-mark-flatten", "canonicalize", "cse"}
	llvmPasses    = []string{"simplifycfg", "constfold", "strength-reduce", "cse", "dce"}
	adaptorStages = []string{"mlir-opt", "lowering", "translate", "adaptor", "llvm-opt", "synthesis"}
	countStages   = []string{"mlir-opt", "lowering", "adaptor", "llvm-opt", "synthesis"}
)

// perLayer lists every per-layer metric with its unit.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, s := range flowStages {
		add("flow."+s+".ms", "ms")
	}
	for _, p := range mlirPasses {
		add("pass.mlir-opt."+p+".ms", "ms")
	}
	for _, p := range llvmPasses {
		add("pass.llvm-opt."+p+".ms", "ms")
	}
	for _, s := range countStages {
		add("unit."+s+".changed_ratio", "share")
	}
	for _, p := range []string{"canonicalize", "cse"} {
		add("unit.mlir-opt."+p+".changed_ratio", "share")
	}
	for _, p := range llvmPasses {
		add("unit.llvm-opt."+p+".changed_ratio", "share")
	}
	add("unit.unchanged_ratio", "share")
	for _, s := range adaptorStages {
		add("oracle."+s+".ms", "ms")
	}
	add("oracle.reference_ms", "ms")
	add("oracle.check_llvm_ms", "ms")
	add("dse.precheck_ms", "ms")
	add("dse.pruned_ratio", "share")
	add("engine.busy_ratio", "share")
	add("engine.cache_hit_ratio", "share")
	add("engine.disk_hit_ratio", "share")
	add("engine.unit_hit_ratio", "share")
	add("engine.store_errors", "count")
	add("engine.store_corrupt", "count")
	add("serve.dedup_ratio", "share")
	add("serve.shed_ratio", "share")
	add("castore.get_ms", "ms")
	add("castore.put_ms", "ms")
	add("mlir.parse_ms", "ms")
	add("trace.uncovered_ratio", "share")
	add("trace.overhead_ratio", "share")
	return out
}()

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries the flags and collects the run's verdict and metrics.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string

	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
	tr                *tracer
}

// fail records a failed output check; any failure makes the run incorrect.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "check failed:", msg)
}

// set records one metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note adds a line to the human-readable report printed before the result.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	r := &run{values: map[string]float64{}}
	var seconds int
	var trace int
	flag.StringVar(&r.workload, "workload", "", "dse, dse-verified or serve")
	flag.Int64Var(&r.seed, "seed", 1, "seed that draws and orders the inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of each timed region")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.StringVar(&r.outDir, "out", ".perfbench", "directory for temp stores and the trace file")
	flag.Parse()
	r.seconds = time.Duration(seconds) * time.Second
	r.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var err error
	switch r.workload {
	case "dse":
		err = runSweep(r, "SMALL", 0)
	case "dse-verified":
		err = runSweep(r, "MINI", 1)
	case "serve":
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown workload %q (want dse, dse-verified or serve)", r.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// finish writes the trace, prints the notes and the result line.
func (r *run) finish() error {
	r.set("success_share", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	names := endToEnd
	if r.trace {
		names = perLayer
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.note("spans: %d written to %s", r.tr.len(), path)
		r.note("the conformance gate runs inside the last llvm-opt unit span (llvm-opt/dce)")
	}
	out := outcome{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	w := bufio.NewWriter(os.Stdout)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return w.Flush()
}

// overhead reports the tracing overhead: every timing metric of the
// traced loop minus the untraced loop's, and as trace.overhead_ratio the
// relative slowdown of the named latency.
func (r *run) overhead(untraced, traced map[string]float64, key string) {
	var keys []string
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.note("tracing overhead on %s: %-16s untraced %10.3f traced %10.3f traced-untraced %+10.3f",
			r.workload, k, untraced[k], traced[k], traced[k]-untraced[k])
	}
	r.set("trace.overhead_ratio", traced[key]/untraced[key]-1)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOf returns the median over groups of each group's q-quantile.
func medianOf(groups [][]float64, q float64) float64 {
	var qs []float64
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, quantile(g, q))
		}
	}
	return quantile(qs, 0.5)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSetup runs setup reps times, returning the median wall time in
// seconds; each call's result replaces the previous one's. Each call
// starts on a collected heap, so it does not pay for the garbage the one
// before it left.
func medianSetup(reps int, setup func() error) (float64, error) {
	var walls []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return quantile(walls, 0.5), nil
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: VmHWM not in /proc/self/status")
}
