package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/serve"
)

// poolPerSecond is the number of requests drawn per timed second for each
// timed loop, well above what the daemon serves on two cores; a loop that
// exhausts its share ends early.
const poolPerSecond = 1000

// warmup is the start of each timed loop whose requests are sent and
// checked but not measured: a fresh daemon serves its first seconds
// slower while its heap and caches grow.
const warmup = 3 * time.Second

// sweepBlock is the number of back-to-back requests that make one client
// sweep on the serve workload: the size of dse.Space().
const sweepBlock = 17

// loopServer is an in-process hls-serve daemon behind a loopback listener.
type loopServer struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(dir string) (*loopServer, error) {
	s, err := serve.New(serve.Config{StoreDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopServer{s: s, hs: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops accepting, drains the daemon and waits for the listener
// goroutine to return.
func (l *loopServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serr := l.hs.Shutdown(ctx)
	derr := l.s.Drain(ctx)
	if err := <-l.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return errors.Join(serr, derr)
}

// stats reads /stats over HTTP.
func (l *loopServer) stats(c *http.Client) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := c.Get(l.url + "/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// reply is the part of a serve.EvalResponse the benchmark checks; the
// emitted C source and adaptor report are not kept.
type reply struct {
	Kind   string      `json:"kind"`
	Report *hls.Report `json:"report"`
	Err    string      `json:"err"`
	Source string      `json:"source"`
}

// sample is one completed request.
type sample struct {
	req        *serveRequest
	client     int
	start, end time.Time
	status     int
	resp       reply
	err        error
}

func (s sample) ms() float64 { return ms(s.end.Sub(s.start)) }

// post sends one request and decodes its reply; the sample's interval
// ends when the whole body has arrived.
func post(c *http.Client, url string, req *serveRequest, client int) sample {
	s := sample{req: req, client: client, start: time.Now()}
	resp, err := c.Post(url+"/v1/eval", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		s.end, s.err = time.Now(), err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end, s.status, s.err = time.Now(), resp.StatusCode, err
	if err == nil {
		s.err = json.Unmarshal(body, &s.resp)
	}
	return s
}

// closedLoop runs `workers` clients, each sending its next request as soon
// as the previous reply arrives, taking requests from reqs in order until
// budget is spent or reqs run out (a zero budget sends every request).
// Where the class of the requests changes, the clients wait until every
// earlier request has its reply, so each phase of the mix runs on its
// own. It returns the samples, per client in completion order, the start
// and the wall time.
func closedLoop(c *http.Client, url string, reqs []serveRequest, budget time.Duration) ([]sample, time.Time, time.Duration) {
	out := make([][]sample, workers)
	start := time.Now()
	spent := func() bool { return budget != 0 && time.Since(start) >= budget }
	for lo := 0; lo < len(reqs) && !spent(); {
		hi := lo + 1
		for hi < len(reqs) && reqs[hi].Class == reqs[lo].Class {
			hi++
		}
		var mu sync.Mutex
		next := lo
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !spent() {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= hi {
						return
					}
					out[w] = append(out[w], post(c, url, &reqs[i], w))
				}
			}()
		}
		wg.Wait()
		lo = hi
	}
	wall := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, start, wall
}

// buildReq resolves a request's input the way the daemon does.
func buildReq(req serve.EvalRequest) (input, error) {
	if req.Kernel != "" {
		k := polybench.Get(req.Kernel)
		if k == nil {
			return input{}, fmt.Errorf("unknown kernel %q", req.Kernel)
		}
		sz, err := k.SizeOf(req.Size)
		if err != nil {
			return input{}, err
		}
		return input{top: k.Name, scope: req.Size, build: func() *mlir.Module { return k.Build(sz) },
			text: k.Build(sz).Print()}, nil
	}
	text := req.MLIR
	return input{top: req.Top, scope: "mlir", text: text, build: func() *mlir.Module {
		m, err := parser.Parse(text)
		if err != nil {
			return nil
		}
		return m
	}}, nil
}

// jobFor is the embedded-engine job for a request's point.
func jobFor(req serve.EvalRequest, label string) (engine.Job, error) {
	in, err := buildReq(req)
	if err != nil {
		return engine.Job{}, err
	}
	kind := engine.KindAdaptor
	if req.Kind == "cxx" {
		kind = engine.KindCxx
	}
	return engine.Job{Label: label, Kind: kind, Build: in.build, Top: in.top, CacheScope: in.scope,
		Directives: req.Directives.Flow(), Target: hls.DefaultTarget()}, nil
}

// jobsFor returns a builder of jobs for the requests.
func jobsFor(reqs []*serveRequest) (func() []engine.Job, error) {
	var jobs []engine.Job
	for i, q := range reqs {
		j, err := jobFor(q.Req, fmt.Sprintf("req%d", i))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return func() []engine.Job { return append([]engine.Job(nil), jobs...) }, nil
}

// runServe is the serve workload: a closed loop of clients against an
// in-process daemon whose store set-up populated through an earlier
// instance.
func runServe(r *run) error {
	runs := 1
	if r.trace {
		runs = 2
	}
	share := poolPerSecond * int((r.seconds+warmup)/time.Second)
	var mix serveMix
	var dir string
	var srv *loopServer
	var populated []sample
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	cleanup := func() error {
		if srv == nil {
			return nil
		}
		err := srv.close()
		srv = nil
		return errors.Join(err, os.RemoveAll(dir))
	}
	defer cleanup()
	setupS, err := medianSetup(7, func() error {
		if err := cleanup(); err != nil {
			return err
		}
		var err error
		if mix, err = newServeMix(r.seed, share*runs); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(r.outDir, "serve-store-"); err != nil {
			return err
		}
		first, err := startServer(dir)
		if err != nil {
			return err
		}
		populated, _, _ = closedLoop(client, first.url, mix.Stored, 0)
		if err := first.close(); err != nil {
			return err
		}
		srv, err = startServer(dir)
		return err
	})
	if err != nil {
		return err
	}

	samples, start, wall := closedLoop(client, srv.url, mix.Reqs[:share], warmup+r.seconds)
	e2e := serveMetrics(samples, start, wall)
	for k, v := range e2e {
		r.set(k, v)
	}
	r.set("setup_s", setupS)
	var lat, area []float64
	for _, s := range populated {
		if s.req.Req.Kernel != "" && s.resp.Report != nil {
			lat = append(lat, float64(s.resp.Report.LatencyCycles))
			area = append(area, dse.Area(s.resp.Report))
		}
	}
	r.set("qor_latency_geomean_cycles", geomean(lat))
	r.set("qor_area_geomean_lut", geomean(area))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.note("serve: %d requests in %.2fs, the first %s unmeasured (%d stored points populated)", len(samples), wall.Seconds(), warmup, len(populated))

	var traced []sample
	var jt *jobTracer
	if r.trace {
		r.tr = newTracer()
		jt = newJobTracer(r.tr)
		// The traced loop, like the untraced one, starts on a fresh daemon
		// over the populated store.
		if err := srv.close(); err != nil {
			return err
		}
		if srv, err = startServer(dir); err != nil {
			return err
		}
		tbefore, err := srv.stats(client)
		if err != nil {
			return err
		}
		var tstart time.Time
		var twall time.Duration
		id := r.tr.add(span{Name: "load", Start: r.tr.now()})
		traced, tstart, twall = closedLoop(client, srv.url, mix.Reqs[share:], warmup+r.seconds)
		r.tr.end(id)
		for i, s := range traced {
			r.tr.add(span{Parent: id, Name: "request:" + s.req.Class, Job: fmt.Sprintf("c%d/%d", s.client, i),
				Start: s.start.Sub(r.tr.epoch), End: s.end.Sub(r.tr.epoch)})
		}
		tafter, err := srv.stats(client)
		if err != nil {
			return err
		}
		r.overhead(e2e, serveMetrics(traced, tstart, twall), "stored_ms_p50")
		r.serveLayers(tbefore, tafter, traced, twall)
	}
	for _, s := range append(samples, traced...) {
		if (s.req.Class == classNew) != (s.resp.Source == "computed") && s.err == nil && s.status == http.StatusOK {
			r.fail("%s point %s served from %q", s.req.Class, s.req.Req.Top+s.req.Req.Kernel, s.resp.Source)
		}
	}
	if err := r.checkServe(append(append(populated, samples...), traced...), jt); err != nil {
		return err
	}
	if r.trace {
		if err := r.serveProbes(mix); err != nil {
			return err
		}
	}
	return cleanup()
}

// window is the length of the serve workload's measurement windows.
const window = time.Second

// serveMetrics derives the end-to-end metrics of one closed-loop run that
// started at start, leaving out its warm-up. Rates and latency quantiles
// are taken per one-second window of completion times and reported as
// the median over the run's full windows, so a burst of machine noise
// moves one window, not the run's figure.
func serveMetrics(samples []sample, start time.Time, wall time.Duration) map[string]float64 {
	start = start.Add(warmup)
	wall -= warmup
	n := int(wall / window)
	if n < 1 {
		n = 1
	}
	counts := make([]float64, n)
	stored := make([][]float64, n)
	fresh := make([][]float64, n)
	blocks := make([][]float64, n)
	slot := func(t time.Time) int { return int(t.Sub(start) / window) }
	perClient := make([][]sample, workers)
	for _, s := range samples {
		if s.start.Before(start) {
			continue
		}
		perClient[s.client] = append(perClient[s.client], s)
		w := slot(s.end)
		if w >= n {
			continue
		}
		counts[w]++
		if s.req.Class == classStored {
			stored[w] = append(stored[w], s.ms())
		} else {
			fresh[w] = append(fresh[w], s.ms())
		}
	}
	for _, ss := range perClient {
		for i := 0; i+sweepBlock <= len(ss); i += sweepBlock {
			last := ss[i+sweepBlock-1]
			if w := slot(last.end); w < n {
				blocks[w] = append(blocks[w], ms(last.end.Sub(ss[i].start)))
			}
		}
	}
	perS := quantile(counts, 0.5) / window.Seconds()
	return map[string]float64{
		"configs_per_s":  perS,
		"requests_per_s": perS,
		"sweep_ms_p50":   medianOf(blocks, 0.5),
		"sweep_ms_p90":   medianOf(blocks, 0.9),
		"stored_ms_p50":  medianOf(stored, 0.5),
		"stored_ms_p90":  medianOf(stored, 0.9),
		"new_ms_p50":     medianOf(fresh, 0.5),
		"new_ms_p90":     medianOf(fresh, 0.9),
	}
}

// checkServe checks every reply: status 200, the source its class
// implies, and a report equal to a fresh store-less engine's for the same
// point. With a tracer, the fresh engine's jobs are traced.
func (r *run) checkServe(samples []sample, jt *jobTracer) error {
	var points []*serveRequest
	index := map[string]int{}
	for _, s := range samples {
		r.attempted++
		switch {
		case s.err != nil:
			r.failed++
			r.fail("request %s: %v", s.req.Req.Top+s.req.Req.Kernel, s.err)
			continue
		case s.status != http.StatusOK:
			r.failed++
			r.fail("request %s: status %d: %s", s.req.Req.Top+s.req.Req.Kernel, s.status, s.resp.Err)
			continue
		}
		if _, ok := index[string(s.req.Body)]; !ok {
			index[string(s.req.Body)] = len(points)
			points = append(points, s.req)
		}
	}
	// The fresh engine runs the points in chunks, keeping only each
	// report's bytes, so the check's memory stays flat.
	const chunk = 256
	want := make([][]byte, len(points))
	var units []span
	plain := engine.New(engine.Options{Workers: workers})
	for lo := 0; lo < len(points); lo += chunk {
		hi := min(lo+chunk, len(points))
		jobs, err := jobsFor(points[lo:hi])
		if err != nil {
			return err
		}
		var rs []engine.JobResult
		if jt != nil {
			var u []span
			jt.phase("fresh-engine-check", func() { rs, u = traceJobs(jt, jobs()) })
			units = append(units, u...)
		} else {
			rs, _ = plain.RunBatch(context.Background(), jobs(), engine.BatchOptions{ContinueOnError: true})
		}
		for i, res := range rs {
			if res.Err != nil {
				r.fail("fresh engine on %s: %v", points[lo+i].Req.Top+points[lo+i].Req.Kernel, res.Err)
				continue
			}
			want[lo+i], _ = json.Marshal(res.Res.Report)
		}
	}
	if jt != nil {
		r.setPasses(aggregate(units))
		r.set("trace.uncovered_ratio", jt.uncoveredRatio())
	}
	mismatches := 0
	for _, s := range samples {
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		if got, _ := json.Marshal(s.resp.Report); !bytes.Equal(got, want[index[string(s.req.Body)]]) {
			mismatches++
			r.fail("reply for %s differs from a fresh engine's report", s.req.Req.Top+s.req.Req.Kernel)
		}
	}
	r.note("serve check: %d replies, %d distinct points re-run on a fresh engine, %d mismatches", len(samples), len(points), mismatches)
	return nil
}

// serveLayers reports the per-layer metrics read from /stats deltas over
// the traced load.
func (r *run) serveLayers(before, after serve.StatsResponse, samples []sample, wall time.Duration) {
	computed := map[string]int{}
	for _, s := range samples {
		if s.resp.Source == "computed" {
			computed[s.resp.Kind]++
		}
	}
	d := func(stage string) float64 { return ms(after.Engine.Phases[stage] - before.Engine.Phases[stage]) }
	all := float64(computed["adaptor"] + computed["cxx"])
	r.set("flow.mlir-opt.ms", ratio(d("mlir-opt"), all))
	r.set("flow.synthesis.ms", ratio(d("synthesis"), all))
	for _, s := range adaptorOnly {
		r.set("flow."+s+".ms", ratio(d(s), float64(computed["adaptor"])))
	}
	for _, s := range cxxOnly {
		r.set("flow."+s+".ms", ratio(d(s), float64(computed["cxx"])))
	}
	a, b := after.Engine, before.Engine
	delta := engine.Stats{
		Jobs: a.Jobs - b.Jobs, CacheHits: a.CacheHits - b.CacheHits, DiskHits: a.DiskHits - b.DiskHits,
		UnitHits: a.UnitHits - b.UnitHits, UnitMisses: a.UnitMisses - b.UnitMisses,
		StoreErrors: a.StoreErrors - b.StoreErrors, StoreCorrupt: a.StoreCorrupt - b.StoreCorrupt,
	}
	r.setEngineRatios(delta, a.CPU-b.CPU, wall,
		ratio(float64(after.Deduped-before.Deduped), float64(after.Requests-before.Requests)),
		ratio(float64(after.Shed-before.Shed), float64(len(samples))))
}

// serveSession is the length of the serve workload's timed loops when a
// sweep workload's traced run runs it as a probe.
const serveSession = 3 * time.Second

// serveOnly lists the per-layer metrics only the daemon produces: its
// result cache, disk store and unit store, dedup and shedding.
var serveOnly = []string{"engine.cache_hit_ratio", "engine.disk_hit_ratio", "engine.unit_hit_ratio",
	"engine.store_errors", "engine.store_corrupt", "serve.dedup_ratio", "serve.shed_ratio"}

// probeServe measures the layers only the daemon runs with a traced run
// of the serve workload of its own, with serveSession loops, and checks
// its replies as that workload does. The sweep workloads keep no result
// cache or store, and serve is not one of the benchmark's gated
// workloads: its stored round trips follow the shared host's disk.
func (r *run) probeServe() error {
	sub := &run{workload: "serve", seed: r.seed, seconds: serveSession, trace: true, outDir: r.outDir,
		values: map[string]float64{}}
	if err := runServe(sub); err != nil {
		return fmt.Errorf("serve session: %w", err)
	}
	r.attempted += sub.attempted
	r.failed += sub.failed
	r.problems = append(r.problems, sub.problems...)
	for _, k := range serveOnly {
		r.set(k, sub.values[k])
	}
	r.note("serve session: %d requests checked, %d failed; %s loops on a fresh daemon give the engine.* hit ratios and serve.* ratios",
		sub.attempted, sub.failed, serveSession)
	return nil
}

// serveProbes runs the counting pass, the oracle delta and the direct
// layer probes on a fixed, seed-drawn slice of the mix.
func (r *run) serveProbes(mix serveMix) error {
	const sample = 24
	var kg, fresh []*serveRequest
	ins := map[string]input{}
	var order []string
	for i := range mix.Reqs {
		q := &mix.Reqs[i]
		if q.Req.MLIR != "" && len(kg) < 60 {
			kg = append(kg, q)
		}
		if q.Class == classNew && len(fresh) < sample {
			fresh = append(fresh, q)
		}
	}
	for _, q := range append(append([]*serveRequest(nil), fresh...), kg...) {
		in, err := buildReq(q.Req)
		if err != nil {
			return err
		}
		key := in.top + "/" + in.scope
		if _, ok := ins[key]; !ok {
			ins[key] = in
			order = append(order, key)
		}
	}
	var inputs, texts []input
	for _, k := range order {
		inputs = append(inputs, ins[k])
		if ins[k].scope == "mlir" {
			texts = append(texts, ins[k])
		}
	}
	kgJobs, err := jobsFor(kg)
	if err != nil {
		return err
	}
	if err := r.countingPass(kgJobs); err != nil {
		return err
	}
	freshJobs, err := jobsFor(fresh)
	if err != nil {
		return err
	}
	jobs := freshJobs()
	var keys []string
	var payloads [][]byte
	for i, res := range r.oracleDelta(newJobTracer(r.tr), freshJobs) {
		r.attempted++
		if res.Err != nil {
			r.failed++
			r.fail("oracle run of %s: %v", jobs[i].Top, res.Err)
			continue
		}
		b, err := json.Marshal(res.Res.Report)
		if err != nil {
			return err
		}
		keys = append(keys, engine.Key(jobs[i]))
		payloads = append(payloads, b)
	}
	if err := r.probeCastore(keys, payloads); err != nil {
		return err
	}
	if err := r.probeOracle(inputs); err != nil {
		return err
	}
	r.probeParse(texts)
	stored, err := polybenchInputs("MINI")
	if err != nil {
		return err
	}
	return r.probePrecheck(stored)
}
