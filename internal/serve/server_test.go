package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// newTestServer builds a server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEval(t *testing.T, resp *http.Response) EvalResponse {
	t.Helper()
	defer resp.Body.Close()
	var out EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func miniEval(client string) EvalRequest {
	return EvalRequest{
		Client: client,
		Kernel: "gemm",
		Size:   "MINI",
		Directives: DirectivesSpec{
			Pipeline: true, II: 1,
		},
	}
}

func TestEvalRoundTripAndCacheSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/eval", miniEval("t"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	first := decodeEval(t, resp)
	if first.Report == nil || first.Report.LatencyCycles <= 0 {
		t.Fatalf("no report: %+v", first)
	}
	if first.Source != "computed" {
		t.Fatalf("cold source = %q, want computed", first.Source)
	}
	second := decodeEval(t, postJSON(t, ts.URL+"/v1/eval", miniEval("t")))
	if second.Source != "cache" {
		t.Fatalf("warm source = %q, want cache", second.Source)
	}
	if second.Report.LatencyCycles != first.Report.LatencyCycles {
		t.Fatalf("cached report diverges")
	}
}

func TestEvalServedFromSharedStoreAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	first := decodeEval(t, postJSON(t, ts1.URL+"/v1/eval", miniEval("a")))
	if first.Source != "computed" {
		t.Fatalf("cold source = %q", first.Source)
	}

	// A second daemon over the same store serves without evaluating.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	second := decodeEval(t, postJSON(t, ts2.URL+"/v1/eval", miniEval("b")))
	if second.Source != "store" {
		t.Fatalf("shared-store source = %q, want store", second.Source)
	}
	if second.Report.LatencyCycles != first.Report.LatencyCycles ||
		second.Report.LUT != first.Report.LUT {
		t.Fatalf("store-served report diverges: %+v vs %+v", second.Report, first.Report)
	}
	if st := s2.Engine().Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
}

func TestEvalBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  EvalRequest
	}{
		{"unknown kernel", EvalRequest{Kernel: "nope"}},
		{"no input", EvalRequest{}},
		{"mlir without top", EvalRequest{MLIR: "func { }"}},
		{"bad kind", EvalRequest{Kernel: "gemm", Kind: "raw"}},
		{"bad cost model", EvalRequest{Kernel: "gemm", Target: &TargetSpec{CostModel: "psychic"}}},
		{"affine map dim out of range", EvalRequest{Top: "k", MLIR: `module { func.func @k(%arg0: memref<4xf32>) {
    affine.for %0 = 0 to 4 step 1 {
      %1 = affine.load %arg0[%0] map affine_map<(d0) -> (d3)> : memref<4xf32>
    }
    func.return } }`}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/eval", tc.req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed json: status %d, want 400", resp.StatusCode)
	}
	t.Run("oversized body", testOversizedBody)
}

// testOversizedBody: a body past MaxRequestBytes is refused with 413 on
// both endpoints, and the daemon then serves a good request byte-identically
// to a daemon that never saw the oversized one.
func testOversizedBody(t *testing.T) {
	good := EvalRequest{Kernel: "gemm", Size: "MINI"}
	readAll := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("good request: status %d: %s", resp.StatusCode, b)
		}
		return b
	}
	_, ref := newTestServer(t, Config{})
	want := readAll(postJSON(t, ref.URL+"/v1/eval", good))

	_, ts := newTestServer(t, Config{})
	huge := EvalRequest{Top: "k", MLIR: strings.Repeat(" ", MaxRequestBytes)}
	for _, path := range []string{"/v1/eval", "/v1/sweep"} {
		resp := postJSON(t, ts.URL+path, huge)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413", path, resp.StatusCode)
		}
	}
	if got := readAll(postJSON(t, ts.URL+"/v1/eval", good)); !bytes.Equal(got, want) {
		t.Errorf("good request after an oversized one:\n got %s\nwant %s", got, want)
	}
}

// TestEvalVerifyHugeMemRef: a verify request whose kernel declares a
// memref past the interpreter's memory budget is answered promptly with
// 422 and an ordinary error, not a miscompile and not a crash.
func TestEvalVerifyHugeMemRef(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `module {
  func.func @k(%arg0: memref<1000000000x1000000000xf32>) {
    func.return
  }
}`
	resp := postJSON(t, ts.URL+"/v1/eval", EvalRequest{MLIR: src, Top: "k", Verify: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	out := decodeEval(t, resp)
	if !strings.Contains(out.Err, "interpreter budget") || strings.Contains(out.Err, "MISCOMPILE") {
		t.Errorf("err = %q, want the memory budget error", out.Err)
	}
}

// TestEvalMLIRInput drives the raw-MLIR path end to end through HTTP.
func TestEvalMLIRInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `
module {
  func.func @axpy(%arg0: memref<16xf32>, %arg1: memref<16xf32>) {
    affine.for %1 = 0 to 16 step 1 {
      %2 = affine.load %arg0[%1] : memref<16xf32>
      %3 = affine.load %arg1[%1] : memref<16xf32>
      %4 = arith.addf %2, %3 : f32
      affine.store %4, %arg1[%1] : memref<16xf32>
    }
    func.return
  }
}
`
	out := decodeEval(t, postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		MLIR: src, Top: "axpy",
	}))
	if out.Err != "" || out.Report == nil {
		t.Fatalf("mlir eval failed: %+v", out)
	}
}

// TestConcurrentIdenticalRequestsEvaluateOnce: N clients race the same
// design point; admission and singleflight make the daemon evaluate it
// exactly once.
func TestConcurrentIdenticalRequestsEvaluateOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 8, QueueDepth: 8})
	const n = 8
	var wg sync.WaitGroup
	responses := make([]EvalResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/eval", miniEval(fmt.Sprintf("c%d", i)))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				resp.Body.Close()
				return
			}
			responses[i] = decodeEval(t, resp)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if responses[i].Report == nil || responses[i].Report.LatencyCycles != responses[0].Report.LatencyCycles {
			t.Fatalf("client %d diverges: %+v", i, responses[i])
		}
	}
	st := s.Engine().Stats()
	executed := st.Jobs - st.CacheHits
	if executed != 1 {
		t.Fatalf("engine executed %d evaluations for %d identical requests", executed, n)
	}
}

func TestSheddingReturns429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 1})
	// Occupy the only slot so queued work stays queued.
	release, err := s.adm.Acquire(context.Background(), "squatter")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// First request queues (depth 1)...
	done := make(chan *http.Response, 1)
	go func() { done <- postJSON(t, ts.URL+"/v1/eval", miniEval("flood")) }()
	waitFor(t, func() bool { return s.adm.QueueDepth("flood") == 1 })

	// ...second is shed.
	resp := postJSON(t, ts.URL+"/v1/eval", miniEval("flood"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.Stats().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}

	release()
	first := <-done
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("queued request: status %d", first.StatusCode)
	}
}

func TestBreakerOpenReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	s.brk.Record("adaptor", passFailure())
	s.brk.Record("adaptor", passFailure())
	resp := postJSON(t, ts.URL+"/v1/eval", miniEval("t"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if s.Stats().BreakerOpen == 0 {
		t.Fatal("breaker_open counter not incremented")
	}
	// cxx requests still flow.
	req := miniEval("t")
	req.Kind = "cxx"
	resp = postJSON(t, ts.URL+"/v1/eval", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cxx blocked by adaptor breaker: %d", resp.StatusCode)
	}
}

func TestHealthEndpointsAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Liveness stays up, readiness flips, work is refused.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/eval", miniEval("t"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("eval after drain: %d, want 503", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decodeEval(t, postJSON(t, ts.URL+"/v1/eval", miniEval("t")))
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Engine.Jobs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSweepStreamsAndMatchesEmbeddedFrontier runs a full sweep through
// the daemon and checks the streamed frontier is byte-identical to the
// embedded explorer's on the same input.
func TestSweepStreamsAndMatchesEmbeddedFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("full space sweep")
	}
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(SweepRequest{Kernel: "gemm", Size: "MINI", Client: "t"})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var points, errs int
	var done *SweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point":
			points++
		case "error":
			errs++
		case "done":
			e := ev
			done = &e
		}
	}
	if done == nil {
		t.Fatal("stream ended without done event")
	}
	space := len(dse.Space())
	if points+errs != space {
		t.Fatalf("streamed %d points + %d errors, space is %d", points, errs, space)
	}

	k := kernelFor(t, "gemm", "MINI")
	ref, err := dse.Explore(k.build, k.top, k.tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Frontier) != len(ref.Pareto) {
		t.Fatalf("frontier sizes: server %d, embedded %d", len(done.Frontier), len(ref.Pareto))
	}
	for i, p := range ref.Pareto {
		sp := done.Frontier[i]
		if sp.Label != p.Label || sp.Latency != p.Latency() || sp.Area != p.Area {
			t.Fatalf("frontier[%d]: server {%s %d %.0f}, embedded {%s %d %.0f}",
				i, sp.Label, sp.Latency, sp.Area, p.Label, p.Latency(), p.Area)
		}
	}
}

// TestClientRemoteFallback wires the thin client's Remote hook into an
// embedded engine: with the daemon up the job is served remotely; with it
// down the engine falls back to local execution and results agree.
func TestClientRemoteFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := NewClient(ts.URL, "test")
	if !client.Ready() {
		t.Fatal("daemon not ready")
	}

	k := kernelFor(t, "gemm", "MINI")
	job := engine.Job{
		Label: "gemm", Kind: engine.KindAdaptor, Build: k.build, Top: k.top,
		Target: k.tgt, CacheScope: "MINI",
		Spec: &engine.RemoteSpec{Kernel: "gemm", Size: "MINI"},
	}
	eng := engine.New(engine.Options{Remote: client.Remote()})
	rs, err := eng.Run(context.Background(), []engine.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Remote || rs[0].Res == nil {
		t.Fatalf("not remote-served: %+v", rs[0])
	}
	remoteLat := rs[0].Res.Report.LatencyCycles

	// Daemon gone: same engine options, local fallback, same numbers.
	ts.Close()
	dead := NewClient(ts.URL, "test")
	eng2 := engine.New(engine.Options{Remote: dead.Remote()})
	rs, err = eng2.Run(context.Background(), []engine.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Remote {
		t.Fatal("served by a dead daemon?")
	}
	if rs[0].Res.Report.LatencyCycles != remoteLat {
		t.Fatalf("fallback diverges: %d vs %d", rs[0].Res.Report.LatencyCycles, remoteLat)
	}
	if eng2.Stats().RemoteHits != 0 {
		t.Fatal("fallback counted as remote hit")
	}
}

// testKernel bundles a test kernel's build closure and identity.
type testKernel struct {
	build func() *mlir.Module
	top   string
	tgt   hls.Target
}

func kernelFor(t *testing.T, name, size string) testKernel {
	t.Helper()
	k := polybench.Get(name)
	if k == nil {
		t.Fatalf("unknown kernel %q", name)
	}
	s, err := k.SizeOf(size)
	if err != nil {
		t.Fatal(err)
	}
	return testKernel{
		build: func() *mlir.Module { return k.Build(s) },
		top:   k.Name,
		tgt:   hls.DefaultTarget(),
	}
}
