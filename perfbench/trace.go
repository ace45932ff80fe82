package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/mlir"
)

// span is one traced interval. Parent 0 means the run itself; Job is the
// request or job identifier the span belongs to.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the time since the tracer started.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span and returns its id.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes the span with the given id now.
func (t *tracer) end(id int64) {
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// phase records a span around fn and makes it the parent of the jobs jt
// traces meanwhile.
func (jt *jobTracer) phase(name string, fn func()) {
	id := jt.tr.add(span{Name: name, Start: jt.tr.now()})
	jt.parent = id
	fn()
	jt.tr.end(id)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// unitEntry is one pipeline unit's entry time as engine.Options.FlowFaultHook
// reports it.
type unitEntry struct {
	stage, pass string
	at          time.Duration
}

// jobTracer turns unit-entry timestamps into unit spans. Each job runs on
// a single-job inner engine whose FlowFaultHook marks unit entries; the
// outer engine reaches it through its Remote seam, so the tracer knows
// when each job starts and ends and reads its JobResult.Elapsed. A unit's
// span ends where the job's next unit starts; the last unit's ends with
// the job.
type jobTracer struct {
	tr     *tracer
	parent int64

	seq atomic.Int64

	mu      sync.Mutex
	entries map[string][]unitEntry
	units   []span
	// elapsed and covered sum JobResult.Elapsed and the unit spans of
	// every traced job, for the uncovered remainder.
	elapsed, covered time.Duration
}

func newJobTracer(tr *tracer) *jobTracer {
	return &jobTracer{tr: tr, entries: map[string][]unitEntry{}}
}

// jobID identifies one execution of a job across the hook and the
// Remote seam: the Remote wrapper makes every label unique.
func jobID(j engine.Job) string { return j.Label }

func (jt *jobTracer) hook(j engine.Job, _, stage, pass string) {
	at := jt.tr.now()
	id := jobID(j)
	jt.mu.Lock()
	jt.entries[id] = append(jt.entries[id], unitEntry{stage, pass, at})
	jt.mu.Unlock()
}

// engine returns an engine with the given pool size whose jobs are all
// traced. Jobs need a non-nil Spec to take the Remote seam.
func (jt *jobTracer) engine(pool int) *engine.Engine {
	inner := engine.New(engine.Options{Workers: 1, FlowFaultHook: jt.hook})
	return engine.New(engine.Options{Workers: pool, Remote: func(j engine.Job) (engine.JobResult, bool) {
		label := j.Label
		j.Label = fmt.Sprintf("%s#%d", label, jt.seq.Add(1))
		// The flow starts its Elapsed clock just before the first Build.
		var once sync.Once
		var built time.Duration
		build := j.Build
		j.Build = func() *mlir.Module {
			once.Do(func() { built = jt.tr.now() })
			return build()
		}
		start := jt.tr.now()
		rs, _ := inner.RunBatch(context.Background(), []engine.Job{j}, engine.BatchOptions{ContinueOnError: true})
		once.Do(func() { built = start })
		jt.finish(j, start, built+rs[0].Elapsed, rs[0])
		rs[0].Label = label
		return rs[0], true
	}})
}

// finish closes a job: records its span and its unit spans. end is when
// the flow stopped.
func (jt *jobTracer) finish(j engine.Job, start, end time.Duration, r engine.JobResult) {
	id := jobID(j)
	jobSpan := jt.tr.add(span{Parent: jt.parent, Name: "job:" + string(j.Kind), Job: id, Start: start, End: end})
	jt.mu.Lock()
	entries := jt.entries[id]
	delete(jt.entries, id)
	jt.mu.Unlock()
	var covered time.Duration
	var units []span
	for k, e := range entries {
		stop := end
		if k+1 < len(entries) {
			stop = entries[k+1].at
		}
		s := span{Parent: jobSpan, Name: e.stage + "/" + e.pass, Job: id, Start: e.at, End: stop}
		s.ID = jt.tr.add(s)
		units = append(units, s)
		covered += stop - e.at
	}
	jt.mu.Lock()
	jt.units = append(jt.units, units...)
	if r.Err == nil {
		jt.elapsed += r.Elapsed
		jt.covered += covered
	}
	jt.mu.Unlock()
}

// takeUnits returns and clears the unit spans gathered so far.
func (jt *jobTracer) takeUnits() []span {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	u := jt.units
	jt.units = nil
	return u
}

// uncoveredRatio is the share of traced jobs' Elapsed no unit span covers:
// module build, the oracle's reference run and flow set-up.
func (jt *jobTracer) uncoveredRatio() float64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return ratio(float64(jt.elapsed-jt.covered), float64(jt.elapsed))
}

// layerTimes aggregates unit spans into self time per stage and per
// stage/pass, with the number of jobs that ran each.
type layerTimes struct {
	total map[string]time.Duration
	jobs  map[string]map[string]bool
}

func aggregate(units []span) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, jobs: map[string]map[string]bool{}}
	add := func(k, job string, d time.Duration) {
		lt.total[k] += d
		if lt.jobs[k] == nil {
			lt.jobs[k] = map[string]bool{}
		}
		lt.jobs[k][job] = true
	}
	for _, u := range units {
		stage, _, _ := strings.Cut(u.Name, "/")
		add(stage, u.Job, u.End-u.Start)
		add(u.Name, u.Job, u.End-u.Start)
	}
	return lt
}

// perJob is the mean self time in ms of key per job that ran it.
func (lt layerTimes) perJob(key string) float64 {
	return ratio(ms(lt.total[key]), float64(len(lt.jobs[key])))
}

// setStages reports flow.<stage>.ms for the named stages.
func (r *run) setStages(lt layerTimes, stages []string) {
	for _, s := range stages {
		r.set("flow."+s+".ms", lt.perJob(s))
	}
}

// setPasses reports pass.<stage>.<pass>.ms.
func (r *run) setPasses(lt layerTimes) {
	for _, p := range mlirPasses {
		r.set("pass.mlir-opt."+p+".ms", lt.perJob("mlir-opt/"+p))
	}
	for _, p := range llvmPasses {
		r.set("pass.llvm-opt."+p+".ms", lt.perJob("llvm-opt/"+p))
	}
}

// unitCounts holds changed and total unit counts by stage, stage/pass,
// and "all".
type unitCounts map[string][2]int

// countUnits runs jobs on one worker with a flow Observer and counts, per
// stage and pass, the units whose output IR differs from their input. A
// unit's output is the next unit's input; the last unit's is the final
// module.
func countUnits(jobs []engine.Job) (unitCounts, error) {
	type obs struct{ stage, pass, ir string }
	var cur []obs
	counts := unitCounts{}
	bump := func(k string, changed bool) {
		c := counts[k]
		if changed {
			c[0]++
		}
		c[1]++
		counts[k] = c
	}
	var firstErr error
	eng := engine.New(engine.Options{Workers: 1, Flow: flow.Options{
		Observer: func(stage, pass, ir string) { cur = append(cur, obs{stage, pass, ir}) },
	}})
	_, err := eng.RunBatch(context.Background(), jobs, engine.BatchOptions{
		ContinueOnError: true,
		// One worker: the Observer calls of job i all precede this call.
		OnResult: func(i int, res engine.JobResult) {
			defer func() { cur = cur[:0] }()
			if res.Err != nil || res.Res == nil || res.Res.LLVM == nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("counting pass: %s: %v", res.Label, res.Err)
				}
				return
			}
			final := res.Res.LLVM.Print()
			for k, o := range cur {
				out := final
				if k+1 < len(cur) {
					out = cur[k+1].ir
				}
				changed := out != o.ir
				bump(o.stage, changed)
				bump(o.stage+"/"+o.pass, changed)
				bump("all", changed)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("counting pass: %w", err)
	}
	return counts, firstErr
}

// equal reports whether two count tables are identical.
func (c unitCounts) equal(o unitCounts) bool {
	if len(c) != len(o) {
		return false
	}
	for k, v := range c {
		if o[k] != v {
			return false
		}
	}
	return true
}

// changed is the changed share of key's units.
func (c unitCounts) changed(key string) float64 {
	return ratio(float64(c[key][0]), float64(c[key][1]))
}

// countingPass runs countUnits twice, checks the counts repeat exactly,
// and reports the unit.* metrics.
func (r *run) countingPass(jobs func() []engine.Job) error {
	a, err := countUnits(jobs())
	if err != nil {
		return err
	}
	b, err := countUnits(jobs())
	if err != nil {
		return err
	}
	if !a.equal(b) {
		r.fail("counting pass: two runs over the same units gave different counts")
	}
	for _, s := range countStages {
		r.set("unit."+s+".changed_ratio", a.changed(s))
	}
	for _, p := range []string{"canonicalize", "cse"} {
		r.set("unit.mlir-opt."+p+".changed_ratio", a.changed("mlir-opt/"+p))
	}
	for _, p := range llvmPasses {
		r.set("unit.llvm-opt."+p+".changed_ratio", a.changed("llvm-opt/"+p))
	}
	all := a["all"]
	r.set("unit.unchanged_ratio", ratio(float64(all[1]-all[0]), float64(all[1])))
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.note("counting pass (%d jobs, 1 worker, repeated twice: identical=%t): changed/total units", len(jobs()), a.equal(b))
	for _, k := range keys {
		r.note("  %-36s %5d / %5d", k, a[k][0], a[k][1])
	}
	return nil
}

// traceJobs runs jobs on a traced engine with the benchmark's pool and
// returns their results and unit spans.
func traceJobs(jt *jobTracer, jobs []engine.Job) ([]engine.JobResult, []span) {
	for i := range jobs {
		if jobs[i].Spec == nil {
			jobs[i].Spec = &engine.RemoteSpec{}
		}
	}
	jt.takeUnits()
	rs, _ := jt.engine(workers).RunBatch(context.Background(), jobs, engine.BatchOptions{ContinueOnError: true})
	return rs, jt.takeUnits()
}

// oracleDelta runs the same jobs with the oracle off and on, both traced,
// and reports oracle.<stage>.ms: the per-job self time each stage gains
// when every unit is re-executed and compared. The oracle-on results are
// returned for the caller's checks.
func (r *run) oracleDelta(jt *jobTracer, jobs func() []engine.Job) []engine.JobResult {
	off := jobs()
	for i := range off {
		off[i].VerifySemantics = false
	}
	on := jobs()
	for i := range on {
		on[i].VerifySemantics = true
	}
	_, offUnits := traceJobs(jt, off)
	rs, onUnits := traceJobs(jt, on)
	offT, onT := aggregate(offUnits), aggregate(onUnits)
	for _, s := range adaptorStages {
		r.set("oracle."+s+".ms", onT.perJob(s)-offT.perJob(s))
	}
	return rs
}
