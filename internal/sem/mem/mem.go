// Package mem provides program memories (the m component of semantic
// configurations) and the address layout that maps variables and array
// elements to simulated machine addresses.
//
// The paper distinguishes memory m from the machine environment E: both
// affect timing, but only memory affects control flow (§3.3). Memory
// here is a flat store of 64-bit integers for scalars and arrays.
package mem

import (
	"fmt"
	"sort"

	"repro/internal/lang/ast"
	"repro/internal/lattice"
)

// Memory holds the values of all declared scalars and arrays. Values
// live in dense slices; the name→slot index maps are immutable after
// New and shared between clones, so per-request operations (Zero,
// Clone) are slice copies, not map rebuilds.
type Memory struct {
	sidx   map[string]int // scalar name -> index into vals
	vals   []int64
	aidx   map[string]int // array name -> index into arrays
	arrays [][]int64
}

// New creates a zero-initialized memory for the program's declarations.
func New(prog *ast.Program) *Memory {
	m := &Memory{
		sidx: make(map[string]int),
		aidx: make(map[string]int),
	}
	for _, d := range prog.Decls {
		if d.IsArray {
			m.aidx[d.Name] = len(m.arrays)
			m.arrays = append(m.arrays, make([]int64, d.Size))
		} else {
			m.sidx[d.Name] = len(m.vals)
			m.vals = append(m.vals, 0)
		}
	}
	return m
}

// Zero resets every scalar and array element to zero in place, so a
// long-lived service can reuse one memory across requests without
// reallocating the maps.
func (m *Memory) Zero() {
	for i := range m.vals {
		m.vals[i] = 0
	}
	for _, a := range m.arrays {
		for i := range a {
			a[i] = 0
		}
	}
}

// ZeroScalars resets only the scalar variables, leaving arrays alone.
// Engines that alias this memory's arrays onto their own storage (see
// AliasArray) zero that storage themselves and use this for the rest.
func (m *Memory) ZeroScalars() {
	for i := range m.vals {
		m.vals[i] = 0
	}
}

// ScalarSlot returns the dense slot index of a declared scalar (slots
// are assigned in declaration order), or -1 if not declared. Engines
// use this to verify their own storage order before AliasScalars.
func (m *Memory) ScalarSlot(name string) int {
	i, ok := m.sidx[name]
	if !ok {
		return -1
	}
	return i
}

// SetSlot assigns the scalar in dense slot i (see ScalarSlot), with no
// name lookup.
func (m *Memory) SetSlot(i int, v int64) { m.vals[i] = v }

// AliasScalars rebinds the scalar value storage to the caller's backing
// slice (declaration-order slots), so scalar writes through this memory
// land directly in the caller's storage. The backing must have exactly
// one slot per declared scalar. Like AliasArray, this is an
// engine-internal zero-copy hook.
func (m *Memory) AliasScalars(backing []int64) {
	if len(backing) != len(m.vals) {
		panic(fmt.Sprintf("mem: alias length %d != %d declared scalars", len(backing), len(m.vals)))
	}
	m.vals = backing
}

// AliasArray rebinds a declared array to the caller's backing slice, so
// writes through this memory land directly in the caller's storage
// (and vice versa). The backing must have the declared length. This is
// an engine-internal zero-copy hook: a service engine aliases its
// scratch memory onto the machine's arrays once, and request setup
// then writes machine state with no copy pass.
func (m *Memory) AliasArray(name string, backing []int64) {
	i, ok := m.aidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared array %q", name))
	}
	if len(m.arrays[i]) != len(backing) {
		panic(fmt.Sprintf("mem: alias length %d != declared length %d for %q", len(backing), len(m.arrays[i]), name))
	}
	m.arrays[i] = backing
}

// Get returns a scalar's value; it panics on undeclared names (the
// type checker guarantees declaredness before execution).
func (m *Memory) Get(name string) int64 {
	i, ok := m.sidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared scalar %q", name))
	}
	return m.vals[i]
}

// Set assigns a scalar.
func (m *Memory) Set(name string, v int64) {
	i, ok := m.sidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared scalar %q", name))
	}
	m.vals[i] = v
}

// GetEl returns array element name[i]; out-of-range indices wrap
// modulo the array length (a deterministic total semantics, so that
// erroneous programs still satisfy the determinism properties rather
// than trapping).
func (m *Memory) GetEl(name string, i int64) int64 {
	ai, ok := m.aidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared array %q", name))
	}
	a := m.arrays[ai]
	return a[wrap(i, len(a))]
}

// SetEl assigns array element name[i], with the same wrapping rule.
func (m *Memory) SetEl(name string, i, v int64) {
	ai, ok := m.aidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared array %q", name))
	}
	a := m.arrays[ai]
	a[wrap(i, len(a))] = v
}

// WrapIndex exposes the index-wrapping rule so the layout and the
// interpreters agree on which address an out-of-range access touches.
func (m *Memory) WrapIndex(name string, i int64) int64 {
	ai, ok := m.aidx[name]
	if !ok {
		panic(fmt.Sprintf("mem: undeclared array %q", name))
	}
	return wrap(i, len(m.arrays[ai]))
}

func wrap(i int64, n int) int64 {
	if n <= 0 {
		panic("mem: empty array")
	}
	r := i % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return r
}

// ArrayLen returns the length of an array, or 0 if not declared.
func (m *Memory) ArrayLen(name string) int {
	i, ok := m.aidx[name]
	if !ok {
		return 0
	}
	return len(m.arrays[i])
}

// HasScalar reports whether name is a declared scalar.
func (m *Memory) HasScalar(name string) bool {
	_, ok := m.sidx[name]
	return ok
}

// HasArray reports whether name is a declared array.
func (m *Memory) HasArray(name string) bool {
	_, ok := m.aidx[name]
	return ok
}

// Clone returns an independent deep copy of the values. The immutable
// name→slot index maps are shared with the original.
func (m *Memory) Clone() *Memory {
	n := &Memory{
		sidx:   m.sidx,
		aidx:   m.aidx,
		vals:   append([]int64(nil), m.vals...),
		arrays: make([][]int64, len(m.arrays)),
	}
	for i, a := range m.arrays {
		n.arrays[i] = append([]int64(nil), a...)
	}
	return n
}

// Equal reports full equality of two memories.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.sidx) != len(o.sidx) || len(m.aidx) != len(o.aidx) {
		return false
	}
	for k, i := range m.sidx {
		oi, ok := o.sidx[k]
		if !ok || o.vals[oi] != m.vals[i] {
			return false
		}
	}
	for k, i := range m.aidx {
		oi, ok := o.aidx[k]
		if !ok || len(o.arrays[oi]) != len(m.arrays[i]) {
			return false
		}
		ov, v := o.arrays[oi], m.arrays[i]
		for j := range v {
			if v[j] != ov[j] {
				return false
			}
		}
	}
	return true
}

// ProjEquiv reports m ≈ℓ o: equality of all variables with exactly
// level lv under Γ (§3.4's projected equivalence).
func (m *Memory) ProjEquiv(o *Memory, gamma map[string]lattice.Label, lv lattice.Label) bool {
	return m.equivWhere(o, gamma, func(l lattice.Label) bool { return l == lv })
}

// LowEquiv reports m ~ℓ o: equality of all variables at levels ⊑ lv.
func (m *Memory) LowEquiv(o *Memory, lat lattice.Lattice, gamma map[string]lattice.Label, lv lattice.Label) bool {
	return m.equivWhere(o, gamma, func(l lattice.Label) bool { return lat.Leq(l, lv) })
}

func (m *Memory) equivWhere(o *Memory, gamma map[string]lattice.Label, include func(lattice.Label) bool) bool {
	for k, i := range m.sidx {
		l, ok := gamma[k]
		if !ok || !include(l) {
			continue
		}
		if oi, ok := o.sidx[k]; !ok || o.vals[oi] != m.vals[i] {
			return false
		}
	}
	for k, i := range m.aidx {
		l, ok := gamma[k]
		if !ok || !include(l) {
			continue
		}
		oi, ok := o.aidx[k]
		if !ok || len(o.arrays[oi]) != len(m.arrays[i]) {
			return false
		}
		ov, v := o.arrays[oi], m.arrays[i]
		for j := range v {
			if v[j] != ov[j] {
				return false
			}
		}
	}
	return true
}

// Names returns all declared names (scalars then arrays), sorted.
func (m *Memory) Names() []string {
	var out []string
	for k := range m.sidx {
		out = append(out, k)
	}
	for k := range m.aidx {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Layout

// Layout assigns simulated machine addresses: each scalar gets one
// 8-byte slot and each array a contiguous run of 8-byte elements, in
// declaration order from DataBase. Command nodes get code addresses
// from CodeBase with CodeStride bytes per node, so distinct commands
// fall in distinct (or at least spread-out) instruction-cache blocks.
type Layout struct {
	addrs      map[string]uint64
	dataBase   uint64
	codeBase   uint64
	codeStride uint64
	end        uint64
}

// LayoutConfig controls address assignment; the zero value selects the
// defaults below.
type LayoutConfig struct {
	DataBase   uint64 // default 0x1_0000
	CodeBase   uint64 // default 0x40_0000
	CodeStride uint64 // bytes of instruction space per command node; default 16
	ElemSize   uint64 // bytes per scalar/element; fixed at 8
}

// NewLayout computes the address layout for a program.
func NewLayout(prog *ast.Program, cfg LayoutConfig) *Layout {
	if cfg.DataBase == 0 {
		cfg.DataBase = 0x10000
	}
	if cfg.CodeBase == 0 {
		cfg.CodeBase = 0x400000
	}
	if cfg.CodeStride == 0 {
		cfg.CodeStride = 16
	}
	l := &Layout{
		addrs:      make(map[string]uint64),
		dataBase:   cfg.DataBase,
		codeBase:   cfg.CodeBase,
		codeStride: cfg.CodeStride,
	}
	next := cfg.DataBase
	for _, d := range prog.Decls {
		l.addrs[d.Name] = next
		if d.IsArray {
			next += 8 * uint64(d.Size)
		} else {
			next += 8
		}
	}
	l.end = next
	return l
}

// Addr returns the address of a scalar (or an array's base address).
func (l *Layout) Addr(name string) uint64 {
	a, ok := l.addrs[name]
	if !ok {
		panic(fmt.Sprintf("layout: unknown variable %q", name))
	}
	return a
}

// ElemAddr returns the address of array element name[i]; the caller is
// responsible for wrapping i into range first (Memory.WrapIndex).
func (l *Layout) ElemAddr(name string, i int64) uint64 {
	return l.Addr(name) + 8*uint64(i)
}

// CodeAddr returns the instruction address of a command node.
func (l *Layout) CodeAddr(nodeID int) uint64 {
	return l.codeBase + l.codeStride*uint64(nodeID)
}

// DataEnd returns the first address past the data segment.
func (l *Layout) DataEnd() uint64 { return l.end }
