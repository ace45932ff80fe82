package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// warmupSeed picks the generated kernel the sweep set-up explores.
const warmupSeed = 1

// sweepRec is one dse.ExploreWith call of the timed loop. Only a
// kernel's first exploration keeps its whole result; later ones keep the
// digest it must repeat and the counts the metrics read.
type sweepRec struct {
	round, kernel int
	first         bool
	wall          time.Duration
	res           *dse.Result
	sum           [32]byte
	configs       int
	evaluated     int
	errors        []dse.PointError
	stats         engine.Stats
	err           error
}

// record condenses one exploration into a sweepRec.
func record(round, kernel int, first bool, wall time.Duration, res *dse.Result, err error) sweepRec {
	rec := sweepRec{round: round, kernel: kernel, first: first, wall: wall, err: err}
	if err != nil {
		return rec
	}
	d, derr := digest(res)
	if derr != nil {
		rec.err = derr
		return rec
	}
	rec.sum = sha256.Sum256(d)
	rec.configs = len(res.Points) + len(res.Pruned)
	rec.evaluated = len(res.Points)
	rec.errors = res.Errors
	rec.stats = res.Stats
	if first {
		rec.res = res
	}
	return rec
}

// polybenchInputs builds every PolyBench kernel at size once, checking
// each builds, and returns the inputs in registry order.
func polybenchInputs(size string) ([]input, error) {
	var ins []input
	for _, k := range polybench.All() {
		sz, err := k.SizeOf(size)
		if err != nil {
			return nil, err
		}
		m := k.Build(sz)
		if m == nil {
			return nil, fmt.Errorf("kernel %s built no module", k.Name)
		}
		ins = append(ins, input{
			top: k.Name, scope: size,
			build: func() *mlir.Module { return k.Build(sz) },
			text:  m.Print(),
		})
	}
	return ins, nil
}

// runSweep is the dse (SMALL, oracle off) and dse-verified (MINI, every
// point under the oracle) workload: dse.ExploreWith over every PolyBench
// kernel in seeded order, round after round, until the budget is spent.
func runSweep(r *run, size string, oracleEvery int) error {
	var ins []input
	opts := dse.Options{Workers: workers, Precheck: true, Oracle: oracleEvery, CacheScope: size}
	// Set-up builds the inputs and warms the process up on a generated
	// kernel outside the suite, so each PolyBench kernel's first
	// exploration in the timed loop is still its first.
	warm := kgen.Generate(warmupSeed, kgen.Config{})
	setupS, err := medianSetup(21, func() error {
		var err error
		if ins, err = polybenchInputs(size); err != nil {
			return err
		}
		res, err := dse.ExploreWith(warm.Build, warm.Name, hls.DefaultTarget(), opts)
		if err == nil && len(res.Errors) > 0 {
			err = res.Errors[0].Err
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The traced run alternates untraced and traced rounds, so both see the
	// same warm-up, heap and machine noise; the end-to-end metrics come
	// from the untraced rounds either way.
	budget := r.seconds
	var jt *jobTracer
	if r.trace {
		r.tr = newTracer()
		jt = newJobTracer(r.tr)
		budget *= 2
	}
	recs, wall := sweepLoop(ins, kernelOrders(r.seed, len(ins)), opts, budget, jt)
	var plain, traced []sweepRec
	for _, rec := range recs {
		if traces(jt, rec.round) {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	firsts := r.checkSweeps(ins, recs, nil)
	if len(firsts) != len(ins) {
		return fmt.Errorf("only %d of %d kernels explored; raise --seconds", len(firsts), len(ins))
	}
	configs, sweeps := r.tally(recs)
	e2e, cpu, stats := sweepMetrics(plain)
	for k, v := range e2e {
		r.set(k, v)
	}
	var lat, area []float64
	for k := range ins {
		p := firsts[k].Pareto
		lat = append(lat, float64(p[0].Latency()))
		area = append(area, p[len(p)-1].Area)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("qor_latency_geomean_cycles", geomean(lat))
	r.set("qor_area_geomean_lut", geomean(area))
	r.set("peak_rss_mb", rss)
	r.note("%s: %d sweeps, %d configs in %.2fs (%.1f configs/s overall, %.1f median over rounds)",
		r.workload, sweeps, configs, wall.Seconds(), float64(configs)/wall.Seconds(), e2e["configs_per_s"])
	frontier, want := frontierJobs(ins, firsts, size)
	if !r.trace {
		rs, _ := engine.New(engine.Options{Workers: workers}).RunBatch(context.Background(), frontier(), engine.BatchOptions{ContinueOnError: true})
		r.checkFrontier(frontier(), rs, want)
		return nil
	}

	lt := aggregate(jt.takeUnits())
	r.setStages(lt, adaptorStages)
	r.setPasses(lt)
	r.set("trace.uncovered_ratio", jt.uncoveredRatio())
	tm, _, _ := sweepMetrics(traced)
	r.overhead(e2e, tm, "stored_ms_p50")

	// The HLS-C++ baseline flow over the same frontier points gives the
	// emit-hlscpp and c-frontend layers on this workload's designs.
	cxx := frontier()
	for i := range cxx {
		cxx[i].Kind = engine.KindCxx
		cxx[i].VerifySemantics = false
	}
	var crs []engine.JobResult
	var cunits []span
	jt.phase("cxx-frontier", func() { crs, cunits = traceJobs(jt, cxx) })
	for _, res := range crs {
		r.attempted++
		if res.Err != nil {
			r.failed++
			r.fail("cxx flow on frontier point %s: %v", res.Label, res.Err)
		}
	}
	r.setStages(aggregate(cunits), cxxOnly)
	jt.phase("oracle-frontier", func() { r.checkFrontier(frontier(), r.oracleDelta(jt, frontier), want) })

	points := pointJobs(ins, firsts, size)
	if err := r.countingPass(points); err != nil {
		return err
	}
	var keys []string
	var payloads [][]byte
	for k := range ins {
		for _, p := range firsts[k].Points {
			keys = append(keys, engine.Key(engine.Job{Kind: engine.KindAdaptor, Top: ins[k].top, CacheScope: size,
				Directives: p.D, Target: hls.DefaultTarget()}))
			b, err := json.Marshal(p.Report)
			if err != nil {
				return err
			}
			payloads = append(payloads, b)
		}
	}
	if err := r.probeCastore(keys, payloads); err != nil {
		return err
	}
	if err := r.probeOracle(ins); err != nil {
		return err
	}
	r.probeParse(ins)
	if err := r.probePrecheck(ins); err != nil {
		return err
	}
	r.setEngineRatios(stats, cpu, wall, 0, 0)
	return r.probeServe()
}

// traces reports whether the loop traces the given round: with a tracer,
// every odd one.
func traces(jt *jobTracer, round int) bool { return jt != nil && round%2 == 1 }

// sweepLoop explores every kernel, round after round in seeded orders, until
// budget is spent; only whole rounds run, so every kernel weighs the same
// in every run. With a tracer, every odd round's jobs are traced.
func sweepLoop(ins []input, orders func() []int, opts dse.Options, budget time.Duration, jt *jobTracer) ([]sweepRec, time.Duration) {
	seen := map[int]bool{}
	var recs []sweepRec
	start := time.Now()
	for round := 0; time.Since(start) < budget; round++ {
		for _, k := range orders() {
			o := opts
			var sweepSpan int64
			if traces(jt, round) {
				sweepSpan = jt.tr.add(span{Name: "sweep", Job: ins[k].top, Start: jt.tr.now()})
				jt.parent = sweepSpan
				o.Engine = jt.engine(workers)
				o.RemoteSpec = &engine.RemoteSpec{Kernel: ins[k].top, Size: ins[k].scope}
			}
			t0 := time.Now()
			res, err := dse.ExploreWith(ins[k].build, ins[k].top, hls.DefaultTarget(), o)
			wall := time.Since(t0)
			recs = append(recs, record(round, k, !seen[k], wall, res, err))
			seen[k] = true
			if traces(jt, round) {
				jt.tr.end(sweepSpan)
			}
		}
	}
	return recs, time.Since(start)
}

// sweepMetrics derives the end-to-end timing metrics of one loop, plus the
// engine time and counters its explorations reported. Each kernel's
// figures are its medians over the loop's rounds, and the metrics are
// taken over those per-kernel medians: a rate divides a round's configs by
// the sum of the kernels' median exploration times, and a latency
// quantile ranges over the kernels. A burst of machine noise so moves one
// sample of a kernel, not the run's figure. new_ms is one exploration's
// time per evaluated configuration, the cost of a design point computed
// from scratch; stored_ms covers the explorations of kernels already
// explored in the process (every round after the first).
func sweepMetrics(recs []sweepRec) (map[string]float64, time.Duration, engine.Stats) {
	var cpu time.Duration
	var stats engine.Stats
	walls := map[int][]float64{}
	again := map[int][]float64{}
	perPoint := map[int][]float64{}
	configs := map[int]int{}
	for _, rec := range recs {
		w := ms(rec.wall)
		walls[rec.kernel] = append(walls[rec.kernel], w)
		if rec.round > 0 {
			again[rec.kernel] = append(again[rec.kernel], w)
		}
		if rec.evaluated > 0 {
			perPoint[rec.kernel] = append(perPoint[rec.kernel], w/float64(rec.evaluated))
		}
		configs[rec.kernel] = rec.configs
		cpu += rec.stats.CPU
		stats = addStats(stats, rec.stats)
	}
	medians := func(per map[int][]float64) []float64 {
		var out []float64
		for _, xs := range per {
			out = append(out, quantile(xs, 0.5))
		}
		return out
	}
	sweep, stored, fresh := medians(walls), medians(again), medians(perPoint)
	// A typical round takes the sum of each kernel's median exploration.
	var round float64
	n := 0
	for k, ws := range walls {
		round += quantile(ws, 0.5) / 1000
		n += configs[k]
	}
	return map[string]float64{
		"configs_per_s":  float64(n) / round,
		"requests_per_s": float64(len(walls)) / round,
		"sweep_ms_p50":   quantile(sweep, 0.5),
		"sweep_ms_p90":   quantile(sweep, 0.9),
		"new_ms_p50":     quantile(fresh, 0.5),
		"new_ms_p90":     quantile(fresh, 0.9),
		"stored_ms_p50":  quantile(stored, 0.5),
		"stored_ms_p90":  quantile(stored, 0.9),
	}, cpu, stats
}

// tally counts the loop's configs and sweeps into the run's attempted and
// failed operations; a configuration is one operation.
func (r *run) tally(recs []sweepRec) (configs, sweeps int) {
	space := len(dse.Space())
	for _, rec := range recs {
		r.attempted += space
		if rec.err != nil {
			r.failed += space
			continue
		}
		r.failed += len(rec.errors)
		configs += rec.configs
		sweeps++
	}
	return configs, sweeps
}

// digest renders everything a sweep returns that must repeat exactly.
func digest(res *dse.Result) ([]byte, error) {
	type point struct {
		Label    string
		Report   *hls.Report
		Area     float64
		Degraded bool
	}
	var v struct {
		Points         []point
		Pareto, Pruned []string
		Errors         int
	}
	for _, p := range res.Points {
		v.Points = append(v.Points, point{p.Label, p.Report, p.Area, p.Degraded})
	}
	for _, p := range res.Pareto {
		v.Pareto = append(v.Pareto, p.Label)
	}
	for _, p := range res.Pruned {
		v.Pruned = append(v.Pruned, p.Label)
	}
	v.Errors = len(res.Errors)
	return json.Marshal(v)
}

// checkSweeps checks that every exploration of a kernel returned exactly
// the same result (the first one seen, or ref's when given), with no
// failed configuration and no miscompile. It returns each kernel's first
// result.
func (r *run) checkSweeps(ins []input, recs []sweepRec, ref map[int]*dse.Result) map[int]*dse.Result {
	firsts := map[int]*dse.Result{}
	want := map[int][32]byte{}
	for k, res := range ref {
		firsts[k] = res
		d, _ := digest(res)
		want[k] = sha256.Sum256(d)
	}
	for _, rec := range recs {
		name := ins[rec.kernel].top
		if rec.err != nil {
			r.fail("%s: %v", name, rec.err)
			continue
		}
		if n := len(rec.errors); n > 0 {
			r.fail("%s: %d configurations failed, first %s: %v", name, n, rec.errors[0].Label, rec.errors[0].Err)
		}
		if m := rec.stats.Miscompiles; m > 0 {
			r.fail("%s: %d miscompiles", name, m)
		}
		if _, ok := want[rec.kernel]; !ok && rec.res != nil {
			want[rec.kernel] = rec.sum
			firsts[rec.kernel] = rec.res
		} else if want[rec.kernel] != rec.sum {
			r.fail("%s: an exploration returned a different result than the first", name)
		}
	}
	return firsts
}

// frontierJobs returns a builder of jobs that re-run every kernel's Pareto
// points under the semantic oracle, and each point's expected report.
func frontierJobs(ins []input, firsts map[int]*dse.Result, size string) (func() []engine.Job, map[string][]byte) {
	want := map[string][]byte{}
	for k := range ins {
		for _, p := range firsts[k].Pareto {
			want[ins[k].top+"/"+p.Label], _ = json.Marshal(p.Report)
		}
	}
	return func() []engine.Job {
		var jobs []engine.Job
		for k := range ins {
			for _, p := range firsts[k].Pareto {
				jobs = append(jobs, engine.Job{Label: ins[k].top + "/" + p.Label, Kind: engine.KindAdaptor,
					Build: ins[k].build, Top: ins[k].top, Directives: p.D, Target: hls.DefaultTarget(),
					CacheScope: size, VerifySemantics: true})
			}
		}
		return jobs
	}, want
}

// pointJobs returns a builder of oracle-off jobs for every evaluated point
// of one round.
func pointJobs(ins []input, firsts map[int]*dse.Result, size string) func() []engine.Job {
	return func() []engine.Job {
		var jobs []engine.Job
		for k := range ins {
			for _, p := range firsts[k].Points {
				jobs = append(jobs, engine.Job{Label: ins[k].top + "/" + p.Label, Kind: engine.KindAdaptor,
					Build: ins[k].build, Top: ins[k].top, Directives: p.D, Target: hls.DefaultTarget(),
					CacheScope: size})
			}
		}
		return jobs
	}
}

// checkFrontier checks the oracle re-run of the frontier points: no
// divergence, and the same report the sweep produced.
func (r *run) checkFrontier(jobs []engine.Job, rs []engine.JobResult, want map[string][]byte) {
	for i, res := range rs {
		r.attempted++
		if res.Err != nil {
			r.failed++
			r.fail("oracle re-run of %s: %v", jobs[i].Label, res.Err)
			continue
		}
		if got, _ := json.Marshal(res.Res.Report); !bytes.Equal(got, want[jobs[i].Label]) {
			r.fail("oracle re-run of %s: report differs from the sweep's", jobs[i].Label)
		}
	}
	r.note("oracle re-run of %d frontier points: %d failed", len(rs), countErrs(rs))
}

func countErrs(rs []engine.JobResult) int {
	n := 0
	for _, res := range rs {
		if res.Err != nil {
			n++
		}
	}
	return n
}

// addStats sums the counters the per-layer ratios read.
func addStats(a, b engine.Stats) engine.Stats {
	a.Jobs += b.Jobs
	a.CacheHits += b.CacheHits
	a.DiskHits += b.DiskHits
	a.UnitHits += b.UnitHits
	a.UnitMisses += b.UnitMisses
	a.StoreErrors += b.StoreErrors
	a.StoreCorrupt += b.StoreCorrupt
	return a
}

// setEngineRatios reports the engine.* and serve.* per-layer ratios.
func (r *run) setEngineRatios(s engine.Stats, cpu, wall time.Duration, dedup, shed float64) {
	r.set("engine.busy_ratio", ratio(float64(cpu), float64(wall)*workers))
	r.set("engine.cache_hit_ratio", ratio(float64(s.CacheHits), float64(s.Jobs)))
	r.set("engine.disk_hit_ratio", ratio(float64(s.DiskHits), float64(s.Jobs)))
	r.set("engine.unit_hit_ratio", ratio(float64(s.UnitHits), float64(s.UnitHits+s.UnitMisses)))
	r.set("engine.store_errors", float64(s.StoreErrors))
	r.set("engine.store_corrupt", float64(s.StoreCorrupt))
	r.set("serve.dedup_ratio", dedup)
	r.set("serve.shed_ratio", shed)
}
