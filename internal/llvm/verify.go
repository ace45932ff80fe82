package llvm

import (
	"fmt"
	"sync"
)

// nameSets recycles Verify's sets of SSA names. A function is verified
// several times per compile, and a fresh set per call was the verifier's
// largest allocation. Sets of more than maxPooledNames names are dropped
// instead, so one huge function does not make every later clear costly.
var nameSets = sync.Pool{New: func() any { return map[string]struct{}{} }}

const maxPooledNames = 1 << 14

// Verify checks structural invariants: every block has a terminator, phis
// match their predecessors, operand types line up for known ops, and every
// instruction with a result has a unique name.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		if err := f.Verify(); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks one function.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	names := nameSets.Get().(map[string]struct{})
	defer func() {
		if len(names) <= maxPooledNames {
			clear(names)
			nameSets.Put(names)
		}
	}()
	for _, p := range f.Params {
		if _, dup := names[p.Name]; dup {
			return fmt.Errorf("duplicate parameter name %%%s", p.Name)
		}
		names[p.Name] = struct{}{}
	}
	preds := &predLists{f: f}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("block %%%s lacks a terminator", b.Name)
		}
		for i, in := range b.Instrs {
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("block %%%s has a terminator mid-block", b.Name)
			}
			if in.HasResult() {
				if in.Name == "" {
					return fmt.Errorf("unnamed result in block %%%s (op %s)", b.Name, in.Op)
				}
				if _, dup := names[in.Name]; dup {
					return fmt.Errorf("duplicate SSA name %%%s", in.Name)
				}
				names[in.Name] = struct{}{}
			}
			if err := verifyInstr(in, preds); err != nil {
				return fmt.Errorf("block %%%s: %s: %w", b.Name, in.Op, err)
			}
		}
	}
	return nil
}

// predLists lists every block's predecessors for the phi checks, indexed
// on the first phi.
type predLists struct {
	f   *Function
	idx *BlockIndex
}

func (p *predLists) of(b *Block) []*Block {
	if p.idx == nil {
		idx := NewBlockIndex(p.f)
		p.idx = &idx
	}
	if i, ok := p.idx.Num[b]; ok {
		return p.idx.Preds(i)
	}
	return nil
}

func verifyInstr(in *Instr, preds *predLists) error {
	want := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	nonNil := func() error {
		for i, a := range in.Args {
			if a == nil {
				return fmt.Errorf("nil operand %d", i)
			}
		}
		return nil
	}
	if err := nonNil(); err != nil {
		return err
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() {
			return fmt.Errorf("integer op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("float op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFNeg:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fneg on %s", in.Args[0].Type())
		}
	case OpICmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() && !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("icmp on %s", in.Args[0].Type())
		}
	case OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fcmp on %s", in.Args[0].Type())
		}
	case OpSelect:
		if err := want(3); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("select condition must be i1")
		}
	case OpLoad:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load from non-pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("load without element type")
		}
	case OpStore:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store to non-pointer")
		}
	case OpGEP:
		if len(in.Args) < 2 {
			return fmt.Errorf("gep needs pointer and at least one index")
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("gep base must be a pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("gep without source element type")
		}
		for _, a := range in.Args[1:] {
			if !a.Type().IsInt() {
				return fmt.Errorf("gep index must be integer")
			}
		}
	case OpAlloca:
		if in.SrcElem == nil {
			return fmt.Errorf("alloca without allocated type")
		}
	case OpPhi:
		if len(in.Args) != len(in.Blocks) {
			return fmt.Errorf("phi args/blocks length mismatch")
		}
		if in.Parent != nil {
			ps := preds.of(in.Parent)
			if len(ps) != len(in.Blocks) {
				return fmt.Errorf("phi has %d incoming, block has %d predecessors",
					len(in.Blocks), len(ps))
			}
			for _, p := range ps {
				found := false
				for _, ib := range in.Blocks {
					if ib == p {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("phi missing incoming for predecessor %%%s", p.Name)
				}
			}
		}
		for _, a := range in.Args {
			if !a.Type().Equal(in.Ty) {
				return fmt.Errorf("phi incoming type mismatch")
			}
		}
	case OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs one target")
		}
	case OpCondBr:
		if err := want(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("conditional br needs two targets")
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("branch condition must be i1")
		}
	case OpCall:
		if in.Callee == "" {
			return fmt.Errorf("call without callee")
		}
	}
	return nil
}
