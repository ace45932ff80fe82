package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/oracle"
)

// input is one kernel a workload compiles: a fresh-module builder, its top
// function, and its text as a client would send it.
type input struct {
	top   string
	scope string
	build func() *mlir.Module
	text  string
}

// The probes below time single layers by calling them directly on the
// workload's own inputs, outside every timed region.

// probeOracle times oracle.New (the MLIR interpreter's reference run) on
// each pristine input and Harness.CheckLLVM (the LLVM interpreter) on the
// input's final adaptor-flow module; a divergence fails the run.
func (r *run) probeOracle(ins []input) error {
	var ref, check time.Duration
	tgt := hls.DefaultTarget()
	for _, in := range ins {
		res, err := flow.AdaptorFlow(in.build(), in.top, flow.Directives{}, tgt)
		if err != nil {
			return fmt.Errorf("oracle probe: %s: %w", in.top, err)
		}
		t0 := time.Now()
		h, err := oracle.New(in.build(), in.top)
		ref += time.Since(t0)
		if err != nil {
			return fmt.Errorf("oracle probe: %s: %w", in.top, err)
		}
		t0 = time.Now()
		err = h.CheckLLVM(res.LLVM)
		check += time.Since(t0)
		if err != nil {
			r.fail("oracle probe: %s final module diverges: %v", in.top, err)
		}
	}
	r.set("oracle.reference_ms", ms(ref)/float64(len(ins)))
	r.set("oracle.check_llvm_ms", ms(check)/float64(len(ins)))
	return nil
}

// probeCastore puts every payload under its key in a fresh store, reads
// each back, and checks the bytes round-trip.
func (r *run) probeCastore(keys []string, payloads [][]byte) error {
	dir, err := os.MkdirTemp(r.outDir, "castore-probe-")
	if err != nil {
		return fmt.Errorf("castore probe: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := castore.Open(filepath.Join(dir, "results"))
	if err != nil {
		return fmt.Errorf("castore probe: %w", err)
	}
	t0 := time.Now()
	for i, k := range keys {
		if err := st.Put(k, payloads[i]); err != nil {
			return fmt.Errorf("castore probe: %w", err)
		}
	}
	put := time.Since(t0)
	t0 = time.Now()
	got := make([][]byte, len(keys))
	for i, k := range keys {
		got[i], _ = st.Get(k)
	}
	get := time.Since(t0)
	for i := range keys {
		if !bytes.Equal(got[i], payloads[i]) {
			r.fail("castore probe: record %s did not round-trip", keys[i])
		}
	}
	r.set("castore.put_ms", ms(put)/float64(len(keys)))
	r.set("castore.get_ms", ms(get)/float64(len(keys)))
	return nil
}

// probeParse parses each input's text and checks that printing the parsed
// module gives the text back.
func (r *run) probeParse(ins []input) {
	var total time.Duration
	for _, in := range ins {
		t0 := time.Now()
		m, err := parser.Parse(in.text)
		total += time.Since(t0)
		if err != nil {
			r.fail("parse probe: %s: %v", in.top, err)
			continue
		}
		if m.Print() != in.text {
			r.fail("parse probe: %s does not round-trip through parse and print", in.top)
		}
	}
	r.set("mlir.parse_ms", ms(total)/float64(len(ins)))
}

var errSkipped = errors.New("skipped by the precheck probe")

// probePrecheck runs dse.ExploreWith with the feasibility precheck on each
// input, letting only the base configuration evaluate: dse.precheck_ms is
// the time from the call to the first job, dse.pruned_ratio the share of
// the space the precheck removed.
func (r *run) probePrecheck(ins []input) error {
	var total time.Duration
	var pruned, configs int
	for _, in := range ins {
		var once sync.Once
		var first time.Time
		eng := engine.New(engine.Options{Workers: 1, ContinueOnError: true, InjectFault: func(j engine.Job) error {
			once.Do(func() { first = time.Now() })
			if j.Label != "base" {
				return errSkipped
			}
			return nil
		}})
		t0 := time.Now()
		res, err := dse.ExploreWith(in.build, in.top, hls.DefaultTarget(), dse.Options{Precheck: true, Engine: eng})
		if err != nil {
			return fmt.Errorf("precheck probe: %s: %w", in.top, err)
		}
		total += first.Sub(t0)
		pruned += len(res.Pruned)
		configs += len(dse.Space())
	}
	r.set("dse.precheck_ms", ms(total)/float64(len(ins)))
	r.set("dse.pruned_ratio", ratio(float64(pruned), float64(configs)))
	return nil
}
