// Package mlir implements a compact multi-level intermediate representation
// modeled on MLIR: ops with regions, SSA values, dialect attributes, affine
// expressions, and a textual format that round-trips through the printer and
// parser. It provides the affine/scf/cf/memref/arith/func dialect subset the
// HLS adaptor flow needs.
package mlir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// TypeKind discriminates the supported type constructors.
type TypeKind int

const (
	// KindInt is a signless integer type iN.
	KindInt TypeKind = iota
	// KindFloat is an IEEE float type f32 or f64.
	KindFloat
	// KindIndex is the platform index type.
	KindIndex
	// KindMemRef is a shaped buffer type memref<...x elem>.
	KindMemRef
	// KindNone is the unit type used by ops without a meaningful result.
	KindNone
)

// Type is a structural MLIR type. Types are immutable after construction;
// compare them with Equal, not pointer identity.
type Type struct {
	Kind  TypeKind
	Width int     // bit width for KindInt and KindFloat
	Elem  *Type   // element type for KindMemRef
	Shape []int64 // memref dimensions; DynamicDim marks a dynamic extent
}

// DynamicDim marks a dynamic memref dimension.
const DynamicDim = int64(-1)

var (
	i1Type    = &Type{Kind: KindInt, Width: 1}
	i32Type   = &Type{Kind: KindInt, Width: 32}
	i64Type   = &Type{Kind: KindInt, Width: 64}
	f32Type   = &Type{Kind: KindFloat, Width: 32}
	f64Type   = &Type{Kind: KindFloat, Width: 64}
	indexType = &Type{Kind: KindIndex}
	noneType  = &Type{Kind: KindNone}
)

// I1 returns the 1-bit integer (boolean) type.
func I1() *Type { return i1Type }

// I32 returns the 32-bit integer type.
func I32() *Type { return i32Type }

// I64 returns the 64-bit integer type.
func I64() *Type { return i64Type }

// intTypes interns the off-mainline integer widths (the common ones are
// package singletons). Types are immutable, so sharing is sound.
var intTypes sync.Map // width -> *Type

// IntType returns the signless integer type of the given bit width.
func IntType(width int) *Type {
	switch width {
	case 1:
		return i1Type
	case 32:
		return i32Type
	case 64:
		return i64Type
	}
	if t, ok := intTypes.Load(width); ok {
		return t.(*Type)
	}
	t, _ := intTypes.LoadOrStore(width, &Type{Kind: KindInt, Width: width})
	return t.(*Type)
}

// F32 returns the 32-bit float type.
func F32() *Type { return f32Type }

// F64 returns the 64-bit float type.
func F64() *Type { return f64Type }

// FloatType returns the float type of the given bit width (32 or 64).
func FloatType(width int) *Type {
	if width == 64 {
		return f64Type
	}
	return f32Type
}

// Index returns the index type.
func Index() *Type { return indexType }

// None returns the unit type.
func None() *Type { return noneType }

// memrefTypes interns memref types by element identity and shape. Scalars
// are singletons, so structurally equal memrefs built through this
// package's constructors share one node — a kernel's parse touches the
// same handful of buffer types thousands of times.
var memrefTypes sync.Map // memrefKey -> *Type

type memrefKey struct {
	elem  *Type
	shape string
}

// MemRef returns the memref type with the given shape and element type.
func MemRef(shape []int64, elem *Type) *Type {
	var sb strings.Builder
	for _, d := range shape {
		sb.WriteString(strconv.FormatInt(d, 10))
		sb.WriteByte('x')
	}
	key := memrefKey{elem: elem, shape: sb.String()}
	if t, ok := memrefTypes.Load(key); ok {
		return t.(*Type)
	}
	s := make([]int64, len(shape))
	copy(s, shape)
	t, _ := memrefTypes.LoadOrStore(key, &Type{Kind: KindMemRef, Elem: elem, Shape: s})
	return t.(*Type)
}

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == KindInt }

// IsFloat reports whether t is a float type.
func (t *Type) IsFloat() bool { return t != nil && t.Kind == KindFloat }

// IsIndex reports whether t is the index type.
func (t *Type) IsIndex() bool { return t != nil && t.Kind == KindIndex }

// IsMemRef reports whether t is a memref type.
func (t *Type) IsMemRef() bool { return t != nil && t.Kind == KindMemRef }

// IsIntOrIndex reports whether t is an integer or index type.
func (t *Type) IsIntOrIndex() bool { return t.IsInt() || t.IsIndex() }

// HasStaticShape reports whether every memref dimension is static.
func (t *Type) HasStaticShape() bool {
	if !t.IsMemRef() {
		return false
	}
	for _, d := range t.Shape {
		if d == DynamicDim {
			return false
		}
	}
	return true
}

// NumElements returns the product of the static memref dimensions.
// It panics on dynamic shapes.
func (t *Type) NumElements() int64 {
	if !t.HasStaticShape() {
		panic("mlir: NumElements on non-static type " + t.String())
	}
	n := int64(1)
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// CheckedNumElements is NumElements with overflow detection: ok is false
// when the type has no static shape, a dimension is negative, or the
// product of the dimensions does not fit in an int64.
func (t *Type) CheckedNumElements() (n int64, ok bool) {
	if !t.HasStaticShape() {
		return 0, false
	}
	n = 1
	for _, d := range t.Shape {
		if d < 0 || d > 0 && n > math.MaxInt64/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindInt, KindFloat:
		return t.Width == o.Width
	case KindIndex, KindNone:
		return true
	case KindMemRef:
		if len(t.Shape) != len(o.Shape) || !t.Elem.Equal(o.Elem) {
			return false
		}
		for i := range t.Shape {
			if t.Shape[i] != o.Shape[i] {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the type in MLIR syntax (i32, f64, index, memref<4x8xf32>).
func (t *Type) String() string {
	if t == nil {
		return "<nil-type>"
	}
	switch t.Kind {
	case KindInt:
		return fmt.Sprintf("i%d", t.Width)
	case KindFloat:
		return fmt.Sprintf("f%d", t.Width)
	case KindIndex:
		return "index"
	case KindNone:
		return "none"
	case KindMemRef:
		var sb strings.Builder
		sb.WriteString("memref<")
		for _, d := range t.Shape {
			if d == DynamicDim {
				sb.WriteString("?x")
			} else {
				fmt.Fprintf(&sb, "%dx", d)
			}
		}
		sb.WriteString(t.Elem.String())
		sb.WriteString(">")
		return sb.String()
	}
	return "<unknown-type>"
}
