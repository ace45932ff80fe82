package llvm

import (
	"strconv"
)

// Value is an SSA value or constant.
type Value interface {
	Type() *Type
	// Ident renders the value reference as it appears in instruction
	// operand position (%name, literal, or @global).
	Ident() string
}

// ConstInt is an integer constant.
type ConstInt struct {
	Ty  *Type
	Val int64
}

// CI builds an integer constant of the given type.
func CI(ty *Type, v int64) *ConstInt { return &ConstInt{Ty: ty, Val: v} }

// Type implements Value.
func (c *ConstInt) Type() *Type { return c.Ty }

// Ident implements Value.
func (c *ConstInt) Ident() string {
	if c.Ty.Bits == 1 {
		if c.Val != 0 {
			return "true"
		}
		return "false"
	}
	return strconv.FormatInt(c.Val, 10)
}

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	Ty  *Type
	Val float64
}

// CF builds a float constant of the given type.
func CF(ty *Type, v float64) *ConstFloat { return &ConstFloat{Ty: ty, Val: v} }

// Type implements Value.
func (c *ConstFloat) Type() *Type { return c.Ty }

// Ident implements Value.
func (c *ConstFloat) Ident() string {
	// Real LLVM prints a hexadecimal form to avoid precision loss; the
	// shortest round-trippable scientific form serves the same purpose here.
	return strconv.FormatFloat(c.Val, 'e', -1, 64)
}

// Undef is an undefined value of a given type.
type Undef struct{ Ty *Type }

// Type implements Value.
func (u *Undef) Type() *Type { return u.Ty }

// Ident implements Value.
func (u *Undef) Ident() string { return "undef" }

// Param is a function parameter.
type Param struct {
	Name string
	Ty   *Type
	// Attrs holds parameter attributes (e.g. "noalias"). HLS interface
	// directives from the adaptor also land here.
	Attrs []string
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Ty }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Name }

// Opcode enumerates supported instructions.
type Opcode string

// Instruction opcodes.
const (
	OpAdd         Opcode = "add"
	OpSub         Opcode = "sub"
	OpMul         Opcode = "mul"
	OpSDiv        Opcode = "sdiv"
	OpSRem        Opcode = "srem"
	OpAnd         Opcode = "and"
	OpOr          Opcode = "or"
	OpXor         Opcode = "xor"
	OpShl         Opcode = "shl"
	OpLShr        Opcode = "lshr"
	OpAShr        Opcode = "ashr"
	OpFAdd        Opcode = "fadd"
	OpFSub        Opcode = "fsub"
	OpFMul        Opcode = "fmul"
	OpFDiv        Opcode = "fdiv"
	OpFNeg        Opcode = "fneg"
	OpICmp        Opcode = "icmp"
	OpFCmp        Opcode = "fcmp"
	OpSelect      Opcode = "select"
	OpZExt        Opcode = "zext"
	OpSExt        Opcode = "sext"
	OpTrunc       Opcode = "trunc"
	OpSIToFP      Opcode = "sitofp"
	OpFPToSI      Opcode = "fptosi"
	OpFPExt       Opcode = "fpext"
	OpFPTrunc     Opcode = "fptrunc"
	OpBitcast     Opcode = "bitcast"
	OpPtrToInt    Opcode = "ptrtoint"
	OpIntToPtr    Opcode = "inttoptr"
	OpLoad        Opcode = "load"
	OpStore       Opcode = "store"
	OpGEP         Opcode = "getelementptr"
	OpAlloca      Opcode = "alloca"
	OpPhi         Opcode = "phi"
	OpBr          Opcode = "br"
	OpCondBr      Opcode = "condbr" // printed as br i1 ...
	OpRet         Opcode = "ret"
	OpCall        Opcode = "call"
	OpUnreachable Opcode = "unreachable"
	// Aggregate ops produced by upstream memref-descriptor lowering.
	OpExtractValue Opcode = "extractvalue"
	OpInsertValue  Opcode = "insertvalue"
)

// LoopMD carries structured loop metadata attached to a loop latch branch
// (the in-memory form of !llvm.loop).
type LoopMD struct {
	Pipeline  bool
	II        int
	Unroll    int // 0 = none, -1 = full
	Flatten   bool
	TripCount int // hint, 0 when unknown
}

// Instr is an instruction. A single struct covers all opcodes; opcode-
// specific fields are documented inline.
type Instr struct {
	Op   Opcode
	Name string // SSA result name (without %); "" for void results
	Ty   *Type  // result type; for store/br/ret it is nil

	Args []Value

	Pred string // icmp/fcmp predicate

	// Blocks: br target(s); for phi, the incoming block per Args entry.
	Blocks []*Block

	// Callee is the called function name (without @) for OpCall.
	Callee string

	// SrcElem is the pointee element type: gep source element type, load
	// result memory type, store value memory type, alloca allocated type.
	SrcElem *Type

	// Indices for extractvalue/insertvalue.
	Indices []int

	// Loop metadata on a latch branch.
	Loop *LoopMD

	// Align in bytes (0 = natural).
	Align int

	Parent *Block
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Ty }

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Name }

// IsTerminator reports whether the instruction ends a block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// HasResult reports whether the instruction defines an SSA value.
func (in *Instr) HasResult() bool {
	return in.Ty != nil && !in.Ty.IsVoid() && in.Op != OpStore
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Function
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in before ref.
func (b *Block) InsertBefore(in, ref *Instr) {
	idx := b.index(ref)
	if idx < 0 {
		panic("llvm: InsertBefore ref not in block")
	}
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// Remove unlinks in from the block.
func (b *Block) Remove(in *Instr) {
	idx := b.index(in)
	if idx < 0 {
		return
	}
	copy(b.Instrs[idx:], b.Instrs[idx+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.Parent = nil
}

func (b *Block) index(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Terminator returns the block's final instruction (nil when empty).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr, OpCondBr:
		return t.Blocks
	}
	return nil
}

// Function is a function definition or declaration.
type Function struct {
	Name   string
	Ret    *Type
	Params []*Param
	Blocks []*Block
	// Attrs carries function attributes; the adaptor records HLS interface
	// and partition directives here (keys prefixed "hls.").
	Attrs  map[string]string
	IsDecl bool
}

// NewFunction creates an empty function definition.
func NewFunction(name string, ret *Type, params ...*Param) *Function {
	return &Function{Name: name, Ret: ret, Params: params, Attrs: map[string]string{}}
}

// AddBlock appends a new named block.
func (f *Function) AddBlock(name string) *Block {
	b := &Block{Name: name, Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// FindBlock returns the block with the given name, or nil.
func (f *Function) FindBlock(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// SetAttr sets a function attribute.
func (f *Function) SetAttr(k, v string) {
	if f.Attrs == nil {
		f.Attrs = map[string]string{}
	}
	f.Attrs[k] = v
}

// BlockIndex numbers a function's blocks by position, then any successor
// missing from f.Blocks after them, and lists each numbered block's
// predecessors in block and successor order. Per-block tables over a
// function are slices over these numbers. Building one takes three
// allocations however many blocks there are.
type BlockIndex struct {
	// Num maps each numbered block to its number.
	Num   map[*Block]int
	start []int // block i's predecessors are preds[start[i]:start[i+1]]
	preds []*Block
}

// NewBlockIndex indexes f's blocks.
func NewBlockIndex(f *Function) BlockIndex {
	x := BlockIndex{Num: make(map[*Block]int, len(f.Blocks))}
	for i, b := range f.Blocks {
		x.Num[b] = i
	}
	// Count each block's predecessors into start[i+1]; prefix sums turn
	// the counts into list starts.
	x.start = make([]int, len(f.Blocks)+1)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			i, ok := x.Num[s]
			if !ok {
				i = len(x.start) - 1
				x.Num[s] = i
				x.start = append(x.start, 0)
			}
			x.start[i+1]++
		}
	}
	for i := 1; i < len(x.start); i++ {
		x.start[i] += x.start[i-1]
	}
	// Filling advances start[i] to the end of list i, which is where list
	// i+1 starts; shifting by one restores the starts.
	x.preds = make([]*Block, x.start[len(x.start)-1])
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			i := x.Num[s]
			x.preds[x.start[i]] = b
			x.start[i]++
		}
	}
	copy(x.start[1:], x.start)
	x.start[0] = 0
	return x
}

// Len returns the number of numbered blocks.
func (x *BlockIndex) Len() int { return len(x.start) - 1 }

// Preds returns the predecessors of block number i.
func (x *BlockIndex) Preds(i int) []*Block { return x.preds[x.start[i]:x.start[i+1]] }

// Module is a translation unit.
type Module struct {
	Name string
	// Flavor documents the pointer/intrinsic dialect of the module:
	// FlavorModern for mlir-translate output, FlavorHLS after adaptation.
	Flavor string
	Funcs  []*Function
}

// Module flavors.
const (
	// FlavorModern marks IR as emitted by a current LLVM (opaque pointers,
	// modern intrinsics) — what mlir-translate produces.
	FlavorModern = "modern"
	// FlavorHLS marks IR as legalized for the HLS toolchain's older LLVM
	// (typed pointers, restricted intrinsic set).
	FlavorHLS = "hls"
)

// NewModule creates an empty modern-flavored module.
func NewModule(name string) *Module {
	return &Module{Name: name, Flavor: FlavorModern}
}

// AddFunc appends a function.
func (m *Module) AddFunc(f *Function) *Function {
	m.Funcs = append(m.Funcs, f)
	return f
}

// FindFunc returns the named function, or nil.
func (m *Module) FindFunc(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Replacements maps values to the values that replace them. A pass that
// replaces several values records them here and applies them with one
// ReplaceUses sweep; until then it reads operands through Resolve (or
// ResolveArgs). Chains resolve to their end (a→b, b→c replaces a with c);
// an entry mapping a value to itself is allowed, any other cycle is a bug.
type Replacements map[Value]Value

// Resolve returns the value v finally stands for.
func (r Replacements) Resolve(v Value) Value {
	for steps := 0; ; steps++ {
		n, ok := r[v]
		if !ok || n == v {
			return v
		}
		if steps > len(r) {
			panic("llvm: cyclic value replacements")
		}
		v = n
	}
}

// ResolveArgs rewrites in's operands to their resolved replacements, the
// state one ReplaceUses sweep would leave them in.
func (r Replacements) ResolveArgs(in *Instr) {
	if len(r) == 0 {
		return
	}
	for i, a := range in.Args {
		if _, ok := r[a]; ok {
			in.Args[i] = r.Resolve(a)
		}
	}
}

// ReplaceUses rewrites, in one sweep over f, every operand with an entry
// in r to its resolved replacement.
func (f *Function) ReplaceUses(r Replacements) {
	if len(r) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			r.ResolveArgs(in)
		}
	}
}

// ReplaceAllUses rewrites every operand use of old with repl in f.
func (f *Function) ReplaceAllUses(old, repl Value) {
	f.ReplaceUses(Replacements{old: repl})
}

// HasUses reports whether v is used as an operand anywhere in f.
func (f *Function) HasUses(v Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}
