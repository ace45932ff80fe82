package passes

import (
	"sort"
	"strconv"

	"repro/internal/mlir"
)

// CSE returns the common-subexpression-elimination pass. It deduplicates
// pure ops whose operands and attributes match, scoped so that an op can
// reuse an equivalent op from the same block or any structurally enclosing
// block (which always dominates it in structured control flow).
func CSE() Pass {
	return funcPass{name: "cse", fn: cseFunc}
}

func cseFunc(f *mlir.Op) error {
	valueIDs := map[*mlir.Value]int{}
	nextID := 0
	id := func(v *mlir.Value) int {
		if n, ok := valueIDs[v]; ok {
			return n
		}
		nextID++
		valueIDs[v] = nextID
		return nextID
	}

	// key appends op's identity (name, operand ids, attributes, result
	// types) to buf. Lookups index the maps with string(buf), which does
	// not allocate; only a new entry copies the key.
	var buf []byte
	key := func(op *mlir.Op) []byte {
		buf = append(buf[:0], op.Name...)
		for _, v := range op.Operands {
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, int64(id(v)), 10)
		}
		keys := make([]string, 0, len(op.Attrs))
		for k := range op.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = append(buf, '|')
			buf = append(buf, k...)
			buf = append(buf, '=')
			buf = append(buf, op.Attrs[k].String()...)
		}
		for _, r := range op.Results {
			buf = append(buf, '|')
			buf = append(buf, r.Type().String()...)
		}
		return buf
	}

	// scope is a stack of available-expression maps; entering a nested
	// block pushes a child scope that can still see ancestors.
	type scope struct {
		parent *scope
		exprs  map[string]*mlir.Op
	}
	lookup := func(s *scope, k []byte) (*mlir.Op, bool) {
		for cur := s; cur != nil; cur = cur.parent {
			if op, ok := cur.exprs[string(k)]; ok {
				return op, true
			}
		}
		return nil, false
	}

	// A deduplicated op's uses are rewritten in one sweep at the end; each
	// op's operands are resolved through the pending replacements first,
	// so keys see what an immediate rewrite would have left.
	rep := mlir.Replacements{}
	var visitBlock func(b *mlir.Block, s *scope)
	visitBlock = func(b *mlir.Block, s *scope) {
		ops := make([]*mlir.Op, len(b.Ops))
		copy(ops, b.Ops)
		for _, op := range ops {
			for i, v := range op.Operands {
				op.Operands[i] = rep.Resolve(v)
			}
			if mlir.IsPure(op) && len(op.Results) == 1 {
				k := key(op)
				if prev, ok := lookup(s, k); ok {
					rep[op.Result(0)] = prev.Result(0)
					op.Erase()
					continue
				}
				s.exprs[string(k)] = op
			}
			for _, r := range op.Regions {
				for _, nb := range r.Blocks {
					visitBlock(nb, &scope{parent: s, exprs: map[string]*mlir.Op{}})
				}
			}
		}
	}

	body := mlir.FuncBody(f)
	if body == nil {
		return nil
	}
	// Only apply scoped CSE in the structured (single-block) regime; cf-level
	// functions get per-block CSE without inheritance.
	if len(f.Regions[0].Blocks) == 1 {
		visitBlock(body, &scope{exprs: map[string]*mlir.Op{}})
	} else {
		for _, b := range f.Regions[0].Blocks {
			visitBlock(b, &scope{exprs: map[string]*mlir.Op{}})
		}
	}
	mlir.ReplaceUses(f, rep)
	return nil
}
