package flow

import (
	"fmt"
	"sync"

	"repro/internal/incr"
	"repro/internal/llvm"
	lparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/resilience"
)

// memoRun threads the incremental store through one flow run as a byte
// cursor over the pipeline's evolving artifact. bytes always holds the
// canonical text of the current pipeline state (MLIR through the MLIR
// stages, then LLVM, with an HLS-C++ interlude in the baseline flow); when
// a unit replays from the store the live IR object is deliberately left
// behind (stale) and only re-materialized — one parse — before the first
// unit that actually has to execute, or at the end of the flow. A fully
// warm run therefore costs one hash per unit plus a single final parse.
type memoRun struct {
	store incr.Store
	// cfg is the flow-wide key salt: flow kind, top function, and the
	// verification options. Verification activation must participate in
	// the key because replayed units skip their after-pass checks — a
	// record is only valid under the exact checking regime that ran when
	// it was stored.
	cfg string

	bytes string
	// hash is incr.HashBytes(bytes), threaded through replays via the
	// records' stored digests so a warm run never re-hashes a full
	// artifact to derive the next key.
	hash  string
	stale bool

	hits, misses int
}

// memoEnabled reports whether this run can memoize. Observation hooks and
// chaos injection need live execution of every unit: an Observer must see
// real per-unit IR (bisection replay depends on it), and a FaultHook or
// InjectMiscompile must actually perturb a running unit.
func (o Options) memoEnabled() bool {
	return o.Incremental && o.Observer == nil && o.FaultHook == nil && o.InjectMiscompile == ""
}

// incrStore resolves the record store for this run.
func (o Options) incrStore() incr.Store {
	if o.IncrStore != nil {
		return o.IncrStore
	}
	return incr.Default
}

// newMemoRun starts the cursor on a pristine module. With an IncrSeed the
// module is never printed — the cursor starts from the seed's digest
// (domain-separated from content digests) and bytes stay empty until the
// first replay or live print fills them. Without a seed, the one Print
// here doubles as the pristine snapshot the lazy semantic oracle captures.
func newMemoRun(store incr.Store, flowName, top string, opts Options, m *mlir.Module) *memoRun {
	cfg := fmt.Sprintf("flow=%s|top=%s|verify=%t|sem=%t|ulp=%d",
		flowName, top, opts.VerifyEach, opts.VerifySemantics, opts.SemanticULP)
	if opts.IncrSeed != "" {
		return &memoRun{store: store, cfg: cfg, hash: incr.HashBytes("seed:" + opts.IncrSeed)}
	}
	bytes := m.Print()
	return &memoRun{store: store, cfg: cfg, bytes: bytes, hash: incr.HashBytes(bytes)}
}

// do runs one unit through the cursor: a store hit replays the record
// without executing the unit; a miss materializes the live IR if it lags
// the cursor, runs the unit live (checks included), and stores the outcome.
func (r *memoRun) do(p *pipeline, u *unit) error {
	key := incr.UnitKey(r.cfg, u.stage+"/"+u.pass, u.params, r.hash)
	if rec, ok := r.store.Get(key); ok && r.replay(u, rec) {
		r.hits++
		return nil
	}
	if r.stale {
		if err := p.materialize(u.in, r.bytes); err != nil {
			return fmt.Errorf("incr: materialize before %s/%s: %w", u.stage, u.pass, err)
		}
		r.stale = false
	}
	if err := p.live(u); err != nil {
		return err
	}
	rec := incr.Record{}
	if u.out != noIR {
		r.bytes = p.text(u.out)
		r.hash = incr.HashBytes(r.bytes)
		rec.IR, rec.Hash = r.bytes, r.hash
	}
	if u.auxOut != nil {
		aux, err := u.auxOut()
		if err != nil {
			// The unit ran fine; only the record is unencodable. Skip
			// storing rather than failing the flow.
			r.misses++
			return nil
		}
		rec.Aux = aux
	}
	// A failed persist degrades durability, never the flow: the store
	// counts the error (engine stats surface it as StoreErrors) and the
	// unit simply recomputes next time.
	_ = r.store.Put(key, rec)
	r.misses++
	return nil
}

// replay applies one stored record. A record that cannot be applied (torn
// Aux, empty IR where the unit rewrites it) reports false and the unit
// runs live instead — corruption degrades to a miss, never an error.
func (r *memoRun) replay(u *unit, rec incr.Record) bool {
	if u.out != noIR && (rec.IR == "" || rec.Hash == "") {
		return false
	}
	if u.auxIn != nil {
		if err := u.auxIn(rec); err != nil {
			return false
		}
	}
	if u.out != noIR {
		r.bytes, r.hash = rec.IR, rec.Hash
		r.stale = true
	}
	return true
}

// finalModules caches parsed (and, where requested, verified) final
// modules by content digest, so repeated warm runs of the same design
// point skip the one parse a replayed tail otherwise costs. Entries are
// shared across Results: under Incremental, a Result's LLVM module must be
// treated as read-only — the same sharing contract the engine's whole-flow
// cache already imposes on its hits.
var finalModules sync.Map // digest|verify -> *llvm.Module

// finalize re-materializes the live LLVM module after a replayed tail so
// the flow's Result carries a real module. verify mirrors the adaptor
// flow's unconditional end-of-llvm-opt verification, which a replayed
// tail skipped (the adaptor flow sets it; the baseline flow never had a
// post-frontend verify to mirror). The pointer is replaced, never filled
// in place: a cache hit aliases a shared module that must stay pristine.
func (r *memoRun) finalize(lmp **llvm.Module, verify bool) error {
	if !r.stale && *lmp != nil {
		return nil
	}
	ck := fmt.Sprintf("%s|v=%t", r.hash, verify)
	if m, ok := finalModules.Load(ck); ok {
		*lmp = m.(*llvm.Module)
		r.stale = false
		return nil
	}
	p, err := lparser.Parse(r.bytes)
	if err != nil {
		return fmt.Errorf("incr: materialize final module: %w", err)
	}
	if verify {
		if err := p.Verify(); err != nil {
			return resilience.NewFailure("llvm-opt", "verify", resilience.KindVerify, err)
		}
	}
	m, _ := finalModules.LoadOrStore(ck, p)
	*lmp = m.(*llvm.Module)
	r.stale = false
	return nil
}
