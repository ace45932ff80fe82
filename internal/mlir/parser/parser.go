package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mlir"
)

// Parse parses MLIR source text into a module.
func Parse(src string) (*mlir.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	return m, nil
}

type parser struct {
	toks []token
	pos  int

	values map[string]*mlir.Value
	blocks map[string]*mlir.Block
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("parse error at line %d col %d (near %q): %s",
		t.line, t.col, t.text, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) isIdent(s string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == s
}

func (p *parser) expectIdent(s string) error {
	if !p.isIdent(s) {
		return p.errf("expected keyword %q", s)
	}
	p.next()
	return nil
}

func (p *parser) parseModule() (*mlir.Module, error) {
	m := mlir.NewModule()
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unexpected EOF in module")
		}
		if err := p.parseFunc(m); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return m, nil
}

func (p *parser) parseType() (*mlir.Type, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected type")
	}
	switch {
	case t.text == "index":
		p.next()
		return mlir.Index(), nil
	case t.text == "none":
		p.next()
		return mlir.None(), nil
	case strings.HasPrefix(t.text, "i"):
		w, err := strconv.Atoi(t.text[1:])
		if err != nil {
			return nil, p.errf("bad integer type")
		}
		p.next()
		return mlir.IntType(w), nil
	case strings.HasPrefix(t.text, "f"):
		w, err := strconv.Atoi(t.text[1:])
		if err != nil {
			return nil, p.errf("bad float type")
		}
		p.next()
		return mlir.FloatType(w), nil
	case t.text == "memref":
		p.next()
		if err := p.expectPunct("<"); err != nil {
			return nil, err
		}
		// Reassemble the shape spelling, e.g. "32x32xf32" or "?x8xf64".
		var sb strings.Builder
		for !p.isPunct(">") {
			if p.cur().kind == tokEOF {
				return nil, p.errf("unterminated memref type")
			}
			sb.WriteString(p.next().text)
		}
		p.next() // >
		parts := strings.Split(sb.String(), "x")
		if len(parts) < 1 {
			return nil, p.errf("empty memref type")
		}
		elemStr := parts[len(parts)-1]
		var elem *mlir.Type
		switch {
		case elemStr == "index":
			elem = mlir.Index()
		case strings.HasPrefix(elemStr, "f"):
			w, err := strconv.Atoi(elemStr[1:])
			if err != nil {
				return nil, p.errf("bad memref element %q", elemStr)
			}
			elem = mlir.FloatType(w)
		case strings.HasPrefix(elemStr, "i"):
			w, err := strconv.Atoi(elemStr[1:])
			if err != nil {
				return nil, p.errf("bad memref element %q", elemStr)
			}
			elem = mlir.IntType(w)
		default:
			return nil, p.errf("bad memref element %q", elemStr)
		}
		var shape []int64
		for _, d := range parts[:len(parts)-1] {
			if d == "?" {
				shape = append(shape, mlir.DynamicDim)
				continue
			}
			n, err := strconv.ParseInt(d, 10, 64)
			if err != nil {
				return nil, p.errf("bad memref dim %q", d)
			}
			shape = append(shape, n)
		}
		return mlir.MemRef(shape, elem), nil
	}
	return nil, p.errf("unknown type %q", t.text)
}

func (p *parser) lookupValue(name string) (*mlir.Value, error) {
	v, ok := p.values[name]
	if !ok {
		return nil, p.errf("use of undefined value %%%s", name)
	}
	return v, nil
}

func (p *parser) parseValueRef() (*mlir.Value, error) {
	t := p.cur()
	if t.kind != tokValueID {
		return nil, p.errf("expected SSA value")
	}
	p.next()
	return p.lookupValue(t.text)
}

// parseValueList parses %a, %b, ... (possibly empty, ended by a non-value).
func (p *parser) parseValueList() ([]*mlir.Value, error) {
	var out []*mlir.Value
	for p.cur().kind == tokValueID {
		v, err := p.parseValueRef()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if !p.isPunct(",") {
			break
		}
		p.next()
	}
	return out, nil
}

func (p *parser) parseFunc(m *mlir.Module) error {
	if err := p.expectIdent("func.func"); err != nil {
		return err
	}
	sym := p.cur()
	if sym.kind != tokSymbol {
		return p.errf("expected function symbol")
	}
	p.next()
	if err := p.expectPunct("("); err != nil {
		return err
	}
	p.values = map[string]*mlir.Value{}
	p.blocks = map[string]*mlir.Block{}

	var argNames []string
	var argTypes []*mlir.Type
	for !p.isPunct(")") {
		a := p.cur()
		if a.kind != tokValueID {
			return p.errf("expected argument name")
		}
		p.next()
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		argNames = append(argNames, a.text)
		argTypes = append(argTypes, ty)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next() // )

	var resultTypes []*mlir.Type
	if p.isPunct("->") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.isPunct(")") {
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			resultTypes = append(resultTypes, ty)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}

	f, args := m.AddFunc(sym.text, argTypes, resultTypes)
	for i, n := range argNames {
		p.values[n] = args[i]
	}

	if p.isIdent("attributes") {
		p.next()
		attrs, err := p.parseAttrDict()
		if err != nil {
			return err
		}
		for k, v := range attrs {
			f.SetAttr(k, v)
		}
	}

	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.parseRegionInto(f.Regions[0], false); err != nil {
		return err
	}
	return nil
}

// parseRegionInto parses ops until the closing '}' into region r (which must
// already have an entry block). implicitYield selects the terminator to add
// when a structured region body omits it.
func (p *parser) parseRegionInto(r *mlir.Region, implicitYield bool) error {
	current := r.Entry()
	for {
		t := p.cur()
		if t.kind == tokPunct && t.text == "}" {
			p.next()
			break
		}
		if t.kind == tokEOF {
			return p.errf("unexpected EOF in region")
		}
		if t.kind == tokBlockID {
			blk, err := p.parseBlockLabel(r, current)
			if err != nil {
				return err
			}
			current = blk
			continue
		}
		if err := p.parseOp(current); err != nil {
			return err
		}
	}
	// Add implicit terminators for structured regions.
	if implicitYield {
		for _, b := range r.Blocks {
			term := b.Terminator()
			if term == nil || !term.IsTerminator() {
				yieldName := mlir.OpAffineYield
				if op := r.ParentOp(); op != nil && (op.Name == mlir.OpSCFFor || op.Name == mlir.OpSCFIf) {
					yieldName = mlir.OpSCFYield
				}
				b.Append(mlir.NewOp(yieldName, nil, nil))
			}
		}
	}
	return nil
}

func (p *parser) getOrCreateBlock(name string) *mlir.Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := mlir.NewBlock()
	p.blocks[name] = b
	return b
}

// parseBlockLabel handles "^bbN(%a: ty, ...):". The first label in a region
// with an empty entry block renames the entry block instead of adding one.
func (p *parser) parseBlockLabel(r *mlir.Region, current *mlir.Block) (*mlir.Block, error) {
	lbl := p.next() // block id
	var blk *mlir.Block
	entry := r.Entry()
	if len(entry.Ops) == 0 && current == entry && p.blocks[lbl.text] == nil && !entryLabeled(p.blocks, entry) {
		blk = entry
		p.blocks[lbl.text] = blk
	} else {
		blk = p.getOrCreateBlock(lbl.text)
		if blk.Region() == nil {
			r.AddBlock(blk)
		}
	}
	if p.isPunct("(") {
		p.next()
		argIdx := 0
		for !p.isPunct(")") {
			a := p.cur()
			if a.kind != tokValueID {
				return nil, p.errf("expected block argument")
			}
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if argIdx < len(blk.Args) {
				// Entry block reusing function-signature args.
				p.values[a.text] = blk.Args[argIdx]
			} else {
				p.values[a.text] = blk.AddArg(ty)
			}
			argIdx++
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	return blk, nil
}

func entryLabeled(blocks map[string]*mlir.Block, entry *mlir.Block) bool {
	for _, b := range blocks {
		if b == entry {
			return true
		}
	}
	return false
}

// parseIndexList parses [%a, %b] (possibly empty).
func (p *parser) parseIndexList() ([]*mlir.Value, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	vals, err := p.parseValueList()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return vals, nil
}

// maybeAttrDict parses an optional trailing {attr} dictionary into op.
func (p *parser) maybeAttrDict(op *mlir.Op) error {
	if !p.isPunct("{") {
		return nil
	}
	attrs, err := p.parseAttrDict()
	if err != nil {
		return err
	}
	for k, v := range attrs {
		op.SetAttr(k, v)
	}
	return nil
}

func (p *parser) parseAttrDict() (map[string]mlir.Attr, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	out := map[string]mlir.Attr{}
	for !p.isPunct("}") {
		key := p.cur()
		if key.kind != tokIdent && key.kind != tokString {
			return nil, p.errf("expected attribute key")
		}
		p.next()
		if p.isPunct("=") {
			p.next()
			val, err := p.parseAttrValue()
			if err != nil {
				return nil, err
			}
			out[key.text] = val
		} else {
			out[key.text] = mlir.UnitAttr{}
		}
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	return out, nil
}

func (p *parser) parseAttrValue() (mlir.Attr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer attr")
		}
		a := mlir.IntAttr{Value: v}
		if p.isPunct(":") {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			a.Ty = ty
		}
		return a, nil
	case t.kind == tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float attr")
		}
		a := mlir.FloatAttr{Value: v}
		if p.isPunct(":") {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			a.Ty = ty
		}
		return a, nil
	case t.kind == tokString:
		p.next()
		return mlir.StringAttr(t.text), nil
	case t.kind == tokSymbol:
		p.next()
		return mlir.SymbolRefAttr(t.text), nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return mlir.BoolAttr(true), nil
	case t.kind == tokIdent && t.text == "false":
		p.next()
		return mlir.BoolAttr(false), nil
	case t.kind == tokIdent && t.text == "unit":
		p.next()
		return mlir.UnitAttr{}, nil
	case t.kind == tokIdent && t.text == "affine_map":
		m, err := p.parseAffineMapLiteral()
		if err != nil {
			return nil, err
		}
		return mlir.AffineMapAttr{Map: m}, nil
	case t.kind == tokPunct && t.text == "[":
		p.next()
		var arr mlir.ArrayAttr
		for !p.isPunct("]") {
			el, err := p.parseAttrValue()
			if err != nil {
				return nil, err
			}
			arr = append(arr, el)
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
		return arr, nil
	case t.kind == tokIdent:
		// Try a type attribute.
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return mlir.TypeAttr{Ty: ty}, nil
	}
	return nil, p.errf("expected attribute value")
}

// parseAffineMapLiteral parses affine_map<(d0,...)[s0,...] -> (exprs)>.
func (p *parser) parseAffineMapLiteral() (*mlir.AffineMap, error) {
	if err := p.expectIdent("affine_map"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	numDims := 0
	for !p.isPunct(")") {
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected dim name")
		}
		p.next()
		numDims++
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	numSyms := 0
	if p.isPunct("[") {
		p.next()
		for !p.isPunct("]") {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected symbol name")
			}
			p.next()
			numSyms++
			if p.isPunct(",") {
				p.next()
			}
		}
		p.next()
	}
	if err := p.expectPunct("->"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var exprs []*mlir.AffineExpr
	for !p.isPunct(")") {
		e, err := p.parseAffineExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if p.isPunct(",") {
			p.next()
		}
	}
	p.next()
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	for _, e := range exprs {
		if e.MaxDim() >= numDims || e.MaxSym() >= numSyms {
			return nil, p.errf("affine expression %s references a dim or symbol beyond the map's (%d dims, %d symbols)", e, numDims, numSyms)
		}
	}
	return mlir.NewMap(numDims, numSyms, exprs...), nil
}

func (p *parser) parseAffineExpr() (*mlir.AffineExpr, error) {
	lhs, err := p.parseAffineTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("+"):
			p.next()
			rhs, err := p.parseAffineTerm()
			if err != nil {
				return nil, err
			}
			lhs = mlir.Add(lhs, rhs)
		case p.isPunct("-"):
			p.next()
			rhs, err := p.parseAffineTerm()
			if err != nil {
				return nil, err
			}
			lhs = mlir.Add(lhs, mlir.Mul(rhs, mlir.Const(-1)))
		default:
			return lhs, nil
		}
	}
}

func (p *parser) parseAffineTerm() (*mlir.AffineExpr, error) {
	lhs, err := p.parseAffineFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("*"):
			p.next()
			rhs, err := p.parseAffineFactor()
			if err != nil {
				return nil, err
			}
			lhs = mlir.Mul(lhs, rhs)
		case p.isIdent("mod"):
			p.next()
			rhs, err := p.parseAffineFactor()
			if err != nil {
				return nil, err
			}
			if !rhs.IsConst() {
				return nil, p.errf("mod by non-constant")
			}
			lhs = mlir.Mod(lhs, rhs.Val)
		case p.isIdent("floordiv"):
			p.next()
			rhs, err := p.parseAffineFactor()
			if err != nil {
				return nil, err
			}
			if !rhs.IsConst() {
				return nil, p.errf("floordiv by non-constant")
			}
			lhs = mlir.FloorDiv(lhs, rhs.Val)
		case p.isIdent("ceildiv"):
			p.next()
			rhs, err := p.parseAffineFactor()
			if err != nil {
				return nil, err
			}
			if !rhs.IsConst() {
				return nil, p.errf("ceildiv by non-constant")
			}
			lhs = mlir.CeilDiv(lhs, rhs.Val)
		default:
			return lhs, nil
		}
	}
}

func (p *parser) parseAffineFactor() (*mlir.AffineExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad affine constant")
		}
		return mlir.Const(v), nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.parseAffineExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokPunct && t.text == "-":
		p.next()
		e, err := p.parseAffineFactor()
		if err != nil {
			return nil, err
		}
		return mlir.Mul(e, mlir.Const(-1)), nil
	case t.kind == tokIdent && len(t.text) > 1 && (t.text[0] == 'd' || t.text[0] == 's'):
		idx, err := strconv.Atoi(t.text[1:])
		if err != nil || idx < 0 {
			return nil, p.errf("bad dim/symbol %q", t.text)
		}
		p.next()
		if t.text[0] == 'd' {
			return mlir.Dim(idx), nil
		}
		return mlir.Sym(idx), nil
	}
	return nil, p.errf("expected affine expression")
}
