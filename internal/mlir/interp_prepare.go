package mlir

import (
	"fmt"
	"math"
)

// mprog is a func.func prepared for interpretation in one linear pass:
// every block argument and op result owns a dense register slot, op names
// and predicates are decoded into small enums, affine maps carry their
// operand slots and reusable buffers, and cf successors are block indices.
// The interpreter then runs on a []interpVal register file instead of
// hashing *Value keys.
type mprog struct {
	nslots int
	args   []int32  // slot of each function argument
	body   []mop    // single-block (structured) body
	blocks []mblock // multi-block (cf-lowered) body; nil when structured
}

// mblock is a prepared cf block: its straight-line ops and terminator.
type mblock struct {
	ops   []mop
	term  mterm
	empty bool
}

// mterm is a prepared cf terminator.
type mterm struct {
	ret   bool
	err   string // a terminator the interpreter cannot execute
	cond  int32  // cf.cond_br condition slot
	edges []medge
}

// medge binds branch operands to a successor's block arguments.
type medge struct {
	succ int32
	srcs []int32
	dsts []int32
}

type mcode uint8

const (
	mUnsupported mcode = iota
	mNop
	mConstI
	mConstF
	mAddI
	mSubI
	mMulI
	mDivSI
	mRemSI
	mMinSI
	mMaxSI
	mAddF
	mSubF
	mMulF
	mDivF
	mNegF
	mSqrt
	mExp
	mCmpI
	mCmpF
	mSelect
	mIndexCast
	mSIToFP
	mFPToSI
	mMove // arith.extf: the operand unchanged
	mTruncF
	mAlloc
	mLoad
	mStore
	mApply
	mAffineFor
	mSCFFor
	mSCFIf
	mCall
	mMalformed // an op missing a region, map or induction variable
)

type cmpPred uint8

const (
	predUnknown cmpPred = iota
	predEQ
	predNE
	predSLT
	predSLE
	predSGT
	predSGE
	predOEQ
	predONE
	predOLT
	predOLE
	predOGT
	predOGE
)

var cmpIPreds = map[string]cmpPred{
	PredEQ: predEQ, PredNE: predNE,
	PredSLT: predSLT, PredSLE: predSLE, PredSGT: predSGT, PredSGE: predSGE,
}

var cmpFPreds = map[string]cmpPred{
	PredOEQ: predOEQ, PredONE: predONE,
	PredOLT: predOLT, PredOLE: predOLE, PredOGT: predOGT, PredOGE: predOGE,
}

var simpleCodes = map[string]mcode{
	OpAddI: mAddI, OpSubI: mSubI, OpMulI: mMulI, OpDivSI: mDivSI, OpRemSI: mRemSI,
	OpMinSI: mMinSI, OpMaxSI: mMaxSI,
	OpAddF: mAddF, OpSubF: mSubF, OpMulF: mMulF, OpDivF: mDivF,
	OpNegF: mNegF, OpMathSqrt: mSqrt, OpMathExp: mExp,
	OpSelect: mSelect, OpIndexCast: mIndexCast, OpSIToFP: mSIToFP, OpFPToSI: mFPToSI,
	OpExtF: mMove, OpTruncF: mTruncF,
	OpAlloc: mAlloc, OpAlloca: mAlloc,
	OpDealloc: mNop, OpAffineYield: mNop, OpSCFYield: mNop, OpReturn: mNop,
	OpCall: mCall,
}

// mop is a prepared op. Operand slots a, b, c cover the fixed-arity ops
// (memref/value for accesses, lo/hi/step for scf.for); a missing operand
// is slot -1 and faults only if executed.
type mop struct {
	code    mcode
	pred    cmpPred
	f32     bool // round the float result through f32
	dst     int32
	a, b, c int32
	iv      int32 // loop induction-variable slot
	// imm is affine.for's step and arith.constant's payload (a float
	// constant's bits).
	imm int64
	// m is the subscript map of an access (memref.load/store subscripts
	// as the identity over their slots) or affine.apply, and the lower
	// bound of affine.for; hi is affine.for's upper bound.
	m, hi *pmap
	body  []mop // loop body, scf.if then-block
	els   []mop // scf.if else-block
	op    *Op
}

func (op *mop) round(v float64) float64 {
	if op.f32 {
		return float64(float32(v))
	}
	return v
}

// pmap is an affine map with its operand slots and reusable operand and
// result buffers, so evaluating it allocates nothing.
type pmap struct {
	m   *AffineMap // nil: the identity over the operands
	ops []int32
	in  []int64 // operand values
	out []int64 // result values; in itself for the identity
	// bad is set when the operands do not match the map: their count
	// differs from its dims and symbols, or it names a dim or symbol past
	// them.
	bad bool
}

// mpreparer numbers one function's values into slots. Ops, map operands
// and buffers are carved out of shared pools sized by a counting walk, so
// preparing a function takes a handful of allocations.
type mpreparer struct {
	p     *mprog
	slots map[*Value]int32
	mops  []mop
	ints  []int32
	words []int64
	maps  []pmap
}

// carve returns the pool elements appended since start as their own
// slice; a pool that had to grow leaves earlier carvings valid.
func carve[T any](pool []T, start int) []T { return pool[start:len(pool):len(pool)] }

func (pr *mpreparer) slot(v *Value) int32 {
	if s, ok := pr.slots[v]; ok {
		return s
	}
	s := int32(pr.p.nslots)
	pr.p.nslots++
	pr.slots[v] = s
	return s
}

func (pr *mpreparer) operand(op *Op, k int) int32 {
	if k >= len(op.Operands) {
		return -1
	}
	return pr.slot(op.Operands[k])
}

func (pr *mpreparer) slotsOf(vs []*Value) []int32 {
	start := len(pr.ints)
	for _, v := range vs {
		pr.ints = append(pr.ints, pr.slot(v))
	}
	return carve(pr.ints, start)
}

func (pr *mpreparer) words0(n int) []int64 {
	start := len(pr.words)
	pr.words = append(pr.words, make([]int64, n)...)
	return carve(pr.words, start)
}

// pmap prepares m over operands; with m nil it prepares the identity over
// the operands (memref.load/store subscripts).
func (pr *mpreparer) pmap(m *AffineMap, operands []*Value) *pmap {
	pr.maps = append(pr.maps, pmap{m: m, ops: pr.slotsOf(operands), in: pr.words0(len(operands))})
	pm := &pr.maps[len(pr.maps)-1]
	if m == nil {
		pm.out = pm.in
		return pm
	}
	pm.out = pr.words0(len(m.Exprs))
	pm.bad = len(operands) != m.NumDims+m.NumSyms
	for _, e := range m.Exprs {
		pm.bad = pm.bad || e.MaxDim() >= m.NumDims || e.MaxSym() >= m.NumSyms
	}
	return pm
}

// prepareFunc prepares f's body.
func prepareFunc(f *Op) *mprog {
	// Size every pool by a counting walk: values, ops, operands, and the
	// operands of map-bearing ops (a bound on their map buffers).
	var nvals, nops, noperands, nmaps, nmapWords int
	var count func(ops []*Op)
	count = func(ops []*Op) {
		for _, op := range ops {
			nops++
			nvals += len(op.Results)
			noperands += len(op.Operands)
			switch op.Name {
			case OpLoad, OpStore, OpAffineLoad, OpAffineStore, OpAffineApply:
				nmaps++
				nmapWords += 2 * len(op.Operands)
			case OpAffineFor:
				nmaps += 2
				nmapWords += 2 * (len(op.Operands) + 2)
			}
			for _, r := range op.Regions {
				for _, b := range r.Blocks {
					nvals += len(b.Args)
					count(b.Ops)
				}
			}
		}
	}
	blocks := f.Regions[0].Blocks
	for _, b := range blocks {
		nvals += len(b.Args)
		count(b.Ops)
	}
	p := &mprog{}
	pr := &mpreparer{p: p, slots: make(map[*Value]int32, nvals),
		mops: make([]mop, 0, nops), ints: make([]int32, 0, noperands),
		words: make([]int64, 0, nmapWords), maps: make([]pmap, 0, nmaps)}
	body := FuncBody(f)
	p.args = pr.slotsOf(body.Args)
	if len(blocks) == 1 {
		p.body = pr.ops(body.Ops)
		return p
	}
	pr.cf(blocks)
	return p
}

// ops prepares a block's ops into a contiguous run of the op pool,
// reserved before any nested region takes its own run.
func (pr *mpreparer) ops(ops []*Op) []mop {
	start := len(pr.mops)
	pr.mops = append(pr.mops, make([]mop, len(ops))...)
	out := carve(pr.mops, start)
	for i, op := range ops {
		pr.op(&out[i], op)
	}
	return out
}

// cf prepares a multi-block body: the blocks reachable from the entry by
// following branch successors, in discovery order.
func (pr *mpreparer) cf(blocks []*Block) {
	index := map[*Block]int32{blocks[0]: 0}
	order := []*Block{blocks[0]}
	succ := func(b *Block) int32 {
		if i, ok := index[b]; ok {
			return i
		}
		i := int32(len(order))
		index[b] = i
		order = append(order, b)
		return i
	}
	var out []mblock
	for bi := 0; bi < len(order); bi++ {
		b := order[bi]
		mb := mblock{}
		n := len(b.Ops)
		if n == 0 {
			mb.empty = true
			out = append(out, mb)
			continue
		}
		mb.ops = pr.ops(b.Ops[:n-1])
		term := b.Ops[n-1]
		t := &mb.term
		edge := func(dst *Block, operands []*Value) medge {
			e := medge{succ: succ(dst), srcs: pr.slotsOf(operands)}
			for i, a := range dst.Args {
				if i < len(operands) {
					e.dsts = append(e.dsts, pr.slot(a))
				}
			}
			return e
		}
		switch term.Name {
		case OpReturn:
			t.ret = true
		case OpBr:
			if len(term.Succs) != 1 {
				t.err = fmt.Sprintf("interp: cf.br with %d successors", len(term.Succs))
				break
			}
			t.edges = []medge{edge(term.Succs[0], term.Operands)}
		case OpCondBr:
			if len(term.Succs) != 2 {
				t.err = fmt.Sprintf("interp: cf.cond_br with %d successors", len(term.Succs))
				break
			}
			tc, _ := term.IntAttr(AttrTrueCount)
			fc, _ := term.IntAttr(AttrFalseCount)
			if int64(len(term.Operands)) != 1+tc+fc {
				t.err = "interp: cf.cond_br operand segments disagree with operand count"
				break
			}
			t.cond = pr.slot(term.Operands[0])
			t.edges = []medge{
				edge(term.Succs[0], term.Operands[1:1+tc]),
				edge(term.Succs[1], term.Operands[1+tc:]),
			}
		default:
			t.err = "interp: unsupported cf terminator " + term.Name
		}
		out = append(out, mb)
	}
	pr.p.blocks = out
}

// op prepares one op (and, recursively, its regions).
func (pr *mpreparer) op(mo *mop, op *Op) {
	*mo = mop{op: op, dst: -1, a: pr.operand(op, 0), b: pr.operand(op, 1), c: pr.operand(op, 2)}
	if len(op.Results) > 0 {
		mo.dst = pr.slot(op.Results[0])
		t := op.Results[0].Type()
		mo.f32 = t != nil && t.IsFloat() && t.Width == 32
	}
	if code, ok := simpleCodes[op.Name]; ok {
		mo.code = code
		return
	}
	switch op.Name {
	case OpConstant:
		switch a := op.Attrs[AttrValue].(type) {
		case IntAttr:
			mo.code, mo.imm = mConstI, a.Value
		case FloatAttr:
			mo.code, mo.imm = mConstF, int64(math.Float64bits(a.Value))
		default:
			mo.code = mNop
		}

	case OpCmpI:
		p, _ := op.StringAttr(AttrPredicate)
		mo.code, mo.pred = mCmpI, cmpIPreds[p]

	case OpCmpF:
		p, _ := op.StringAttr(AttrPredicate)
		mo.code, mo.pred = mCmpF, cmpFPreds[p]

	case OpLoad:
		mo.code = mLoad
		mo.m = pr.pmap(nil, op.Operands[min(1, len(op.Operands)):])

	case OpStore:
		// Slot a is the memref, b the stored value.
		mo.code, mo.a, mo.b = mStore, mo.b, mo.a
		mo.m = pr.pmap(nil, op.Operands[min(2, len(op.Operands)):])

	case OpAffineLoad, OpAffineStore:
		v := AffineAccessView{op}
		mo.code = mLoad
		if v.IsStore() {
			mo.code, mo.a, mo.b = mStore, mo.b, mo.a
		}
		if m := v.Map(); m != nil {
			mo.m = pr.pmap(m, v.MapOperands())
		} else {
			mo.code = mMalformed
		}

	case OpAffineApply:
		m, _ := op.MapAttr(AttrMap)
		if m == nil || len(m.Exprs) == 0 {
			mo.code = mMalformed
			return
		}
		mo.code, mo.m = mApply, pr.pmap(m, op.Operands)

	case OpAffineFor:
		fv := AffineForView{Op: op}
		lbc, _ := op.IntAttr(AttrLBCount)
		body := regionBlock(op, 0)
		if body == nil || len(body.Args) == 0 || lbc < 0 || lbc > int64(len(op.Operands)) {
			mo.code = mMalformed
			return
		}
		lo, hi := fv.LowerMap(), fv.UpperMap()
		if lo == nil || hi == nil || len(lo.Exprs) == 0 || len(hi.Exprs) == 0 {
			mo.code = mMalformed
			return
		}
		mo.m, mo.hi = pr.pmap(lo, fv.LowerOperands()), pr.pmap(hi, fv.UpperOperands())
		mo.code, mo.imm = mAffineFor, fv.Step()
		mo.iv = pr.slot(body.Args[0])
		mo.body = pr.ops(body.Ops)

	case OpSCFFor:
		body := regionBlock(op, 0)
		if body == nil || len(body.Args) == 0 {
			mo.code = mMalformed
			return
		}
		mo.code, mo.iv = mSCFFor, pr.slot(body.Args[0])
		mo.body = pr.ops(body.Ops)

	case OpSCFIf:
		then := regionBlock(op, 0)
		if then == nil {
			mo.code = mMalformed
			return
		}
		mo.code, mo.body = mSCFIf, pr.ops(then.Ops)
		if len(op.Regions) > 1 {
			els := regionBlock(op, 1)
			if els == nil {
				mo.code = mMalformed
				return
			}
			mo.els = pr.ops(els.Ops)
		}
	}
}

// regionBlock is the entry block of op's region i, or nil.
func regionBlock(op *Op, i int) *Block {
	if i >= len(op.Regions) || len(op.Regions[i].Blocks) == 0 {
		return nil
	}
	return op.Regions[i].Blocks[0]
}
