// Package strand implements procedure decomposition into canonical
// strands — the representation at the core of the paper's similarity
// metric.
//
// A lifted basic block is decomposed into data-flow slices (Algorithm 1),
// each slice is brought to a succinct canonical form (standing in for the
// paper's LLVM `opt` re-optimization: constant folding and propagation,
// expression simplification, instruction combining, common-subexpression
// elimination and dead-code elimination), offsets into the binary's code
// and data sections are eliminated while stack and struct offsets are
// retained, input registers are folded into positional arguments, names
// are normalized by order of appearance, and the rendered text is hashed.
package strand

import (
	"bytes"
	"slices"
	"strconv"

	"firmup/internal/uir"
)

// Node kinds of the expression DAG.
type nodeKind uint8

const (
	nConst   nodeKind = iota
	nInput            // architectural register read before written
	nCallRes          // value produced by the k-th call in the block
	nLoad             // memory read with no dominating store in the block
	nBin
	nUn
	nSel
)

// nodeKey is a node's structure: its kind, the fields that kind uses,
// and its already-interned children. It is the builder's hash-consing
// key.
type nodeKey struct {
	kind    nodeKind
	op      uir.Op
	size    uint8 // load size
	reg     uir.Reg
	val     uint32
	idx     int32 // call index for nCallRes
	a, b, c *node
}

// node is a hash-consed DAG node; equal structure ⇒ identical pointer
// within one builder.
type node struct {
	nodeKey
	// blind memoizes blindKey; nil until first asked.
	blind []byte
	// rgen/rtok memoize the node's rendered token for the strand being
	// rendered when rgen matches the renderer's generation.
	rgen uint32
	rtok token
}

// builder constructs and canonicalizes DAG nodes for one basic block.
// Nodes are allocated from a slab, and blind keys from a byte slab,
// that a builder reused across many blocks (an Extractor's per-worker
// scratch) rewinds and refills for each block instead of allocating a
// heap object per node or key.
type builder struct {
	cons  map[nodeKey]*node
	arena []node
	keys  []byte
	// gen is the last renderer generation handed out (see renderer.begin).
	gen uint32
}

// nodeSlab and keySlab are the initial slab sizes. A full slab is never
// grown in place — it is left to the nodes pointing into it and a
// slab twice its size started — so node and key pointers stay stable
// for the whole block, and after a few blocks the slab fits any block.
const (
	nodeSlab = 256
	keySlab  = 4096
)

func newBuilder() *builder {
	return &builder{cons: map[nodeKey]*node{}}
}

// reset clears the interning table and rewinds the slabs for the next
// block: nodes and keys of the previous block are unreachable once its
// strands are rendered, so their memory is refilled.
func (bd *builder) reset() {
	clear(bd.cons)
	bd.arena = bd.arena[:0]
	bd.keys = bd.keys[:0]
}

func (bd *builder) alloc() *node {
	if len(bd.arena) == cap(bd.arena) {
		bd.arena = make([]node, 0, max(nodeSlab, 2*cap(bd.arena)))
	}
	bd.arena = bd.arena[:len(bd.arena)+1]
	return &bd.arena[len(bd.arena)-1]
}

// reserveKey makes room for need more blind-key bytes in bd.keys
// without reallocating it.
func (bd *builder) reserveKey(need int) {
	if cap(bd.keys)-len(bd.keys) < need {
		bd.keys = make([]byte, 0, max(keySlab, 2*cap(bd.keys), need))
	}
}

// intern hash-conses a node. Keying on the structure value is exact:
// children are interned before their parents, so two children are
// structurally equal exactly when their pointers are equal.
func (bd *builder) intern(k nodeKey) *node {
	if p, ok := bd.cons[k]; ok {
		return p
	}
	p := bd.alloc()
	*p = node{nodeKey: k}
	bd.cons[k] = p
	return p
}

// Blind keys of leaves that carry no value.
var (
	blindInput   = []byte("1i")
	blindCallRes = []byte("1r")
)

// blindKey is the register-identity-blind structural key used for
// commutative operand ordering, so that two compilations assigning
// different registers order operands the same way. Keys compare
// bytewise; ops are zero-padded to two decimal digits.
func (bd *builder) blindKey(n *node) []byte {
	if n.blind != nil {
		return n.blind
	}
	var a, b, c []byte
	switch n.kind {
	case nInput:
		n.blind = blindInput
		return n.blind
	case nCallRes:
		n.blind = blindCallRes
		return n.blind
	case nLoad, nUn:
		a = bd.blindKey(n.a)
	case nBin:
		a, b = bd.blindKey(n.a), bd.blindKey(n.b)
	case nSel:
		a, b, c = bd.blindKey(n.a), bd.blindKey(n.b), bd.blindKey(n.c)
	}
	// Longest fixed part: "9c" + 8 hex digits; "3b" + op + "(,)".
	bd.reserveKey(16 + len(a) + len(b) + len(c))
	start := len(bd.keys)
	k := bd.keys
	switch n.kind {
	case nConst:
		// Constants rank last so canonical operand order is
		// expression-then-constant (LLVM style).
		k = append(k, "9c"...)
		k = strconv.AppendUint(k, uint64(n.val), 16)
	case nLoad:
		k = append(k, "2l"...)
		k = strconv.AppendUint(k, uint64(n.size), 10)
		k = append(k, '(')
		k = append(k, a...)
		k = append(k, ')')
	case nBin:
		k = appendOp2(append(k, "3b"...), n.op)
		k = append(k, '(')
		k = append(k, a...)
		k = append(k, ',')
		k = append(k, b...)
		k = append(k, ')')
	case nUn:
		k = appendOp2(append(k, "3u"...), n.op)
		k = append(k, '(')
		k = append(k, a...)
		k = append(k, ')')
	case nSel:
		k = append(k, "3s("...)
		k = append(k, a...)
		k = append(k, ',')
		k = append(k, b...)
		k = append(k, ',')
		k = append(k, c...)
		k = append(k, ')')
	}
	bd.keys = k
	n.blind = k[start:len(k):len(k)]
	return n.blind
}

// appendOp2 appends op's number zero-padded to two decimal digits.
func appendOp2(dst []byte, op uir.Op) []byte {
	if op < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, uint64(op), 10)
}

func (bd *builder) konst(v uint32) *node  { return bd.intern(nodeKey{kind: nConst, val: v}) }
func (bd *builder) input(r uir.Reg) *node { return bd.intern(nodeKey{kind: nInput, reg: r}) }
func (bd *builder) callRes(idx int) *node { return bd.intern(nodeKey{kind: nCallRes, idx: int32(idx)}) }
func (bd *builder) load(addr *node, size uint8) *node {
	return bd.intern(nodeKey{kind: nLoad, a: addr, size: size})
}

// maxBits returns an upper bound on the number of significant low bits of
// the node's value, or 32 when unknown. Used for mask elimination.
func maxBits(n *node) int {
	switch n.kind {
	case nConst:
		b := 0
		for v := n.val; v != 0; v >>= 1 {
			b++
		}
		return b
	case nLoad:
		return int(n.size) * 8
	case nBin:
		if n.op.IsCompare() {
			return 1
		}
		if n.op == uir.OpAnd {
			return min(maxBits(n.a), maxBits(n.b))
		}
	case nUn:
		switch n.op {
		case uir.OpBool:
			return 1
		case uir.OpZext8:
			return 8
		case uir.OpZext16:
			return 16
		}
	case nSel:
		return max(maxBits(n.b), maxBits(n.c))
	}
	return 32
}

func isBoolean(n *node) bool { return maxBits(n) == 1 }

// negateCompare returns the complement of a comparison node, or nil.
func (bd *builder) negateCompare(n *node) *node {
	if n.kind != nBin || !n.op.IsCompare() {
		return nil
	}
	switch n.op {
	case uir.OpCmpEQ:
		return bd.bin(uir.OpCmpNE, n.a, n.b)
	case uir.OpCmpNE:
		return bd.bin(uir.OpCmpEQ, n.a, n.b)
	case uir.OpCmpLTS:
		return bd.bin(uir.OpCmpLES, n.b, n.a)
	case uir.OpCmpLES:
		return bd.bin(uir.OpCmpLTS, n.b, n.a)
	case uir.OpCmpLTU:
		return bd.bin(uir.OpCmpLEU, n.b, n.a)
	case uir.OpCmpLEU:
		return bd.bin(uir.OpCmpLTU, n.b, n.a)
	}
	return nil
}

// bin builds a canonicalized binary node.
func (bd *builder) bin(op uir.Op, a, b *node) *node {
	// Constant folding.
	if a.kind == nConst && b.kind == nConst {
		return bd.konst(uir.EvalBin(op, a.val, b.val))
	}
	// Put the constant operand on the right for commutative ops so the
	// pattern rules below need only check one side.
	if op.IsCommutative() && a.kind == nConst && b.kind != nConst {
		a, b = b, a
	}
	// Normalize multiplication by a power of two to a shift (dissolving
	// the mul-vs-shift instruction-selection idiom).
	if op == uir.OpMul {
		if c, x, ok := constOperand(a, b); ok && c.val != 0 && c.val&(c.val-1) == 0 {
			k := uint32(0)
			for v := c.val; v > 1; v >>= 1 {
				k++
			}
			return bd.bin(uir.OpShl, x, bd.konst(k))
		}
	}
	// Identities and annihilators with a constant operand.
	if c, x, ok := constOperand(a, b); ok {
		switch op {
		case uir.OpAdd, uir.OpOr, uir.OpXor:
			if c.val == 0 {
				return x
			}
		case uir.OpMul:
			if c.val == 1 {
				return x
			}
			if c.val == 0 {
				return bd.konst(0)
			}
		case uir.OpAnd:
			if c.val == 0xFFFFFFFF {
				return x
			}
			if c.val == 0 {
				return bd.konst(0)
			}
			// Mask already implied by the operand's width.
			if bits := maxBits(x); bits < 32 && c.val == (uint32(1)<<bits)-1 {
				return x
			}
		}
	}
	// Right-constant identities for non-commutative ops.
	if b.kind == nConst {
		switch op {
		case uir.OpSub, uir.OpShl, uir.OpShrU, uir.OpShrS:
			if b.val == 0 {
				return a
			}
		case uir.OpDivS, uir.OpDivU:
			if b.val == 1 {
				return a
			}
		}
	}
	// 0 - x → neg x.
	if op == uir.OpSub && a.kind == nConst && a.val == 0 {
		return bd.un(uir.OpNeg, b)
	}
	// x - x → 0, x ^ x → 0, x & x → x, x | x → x.
	if a == b {
		switch op {
		case uir.OpSub, uir.OpXor:
			return bd.konst(0)
		case uir.OpAnd, uir.OpOr:
			return a
		case uir.OpCmpEQ, uir.OpCmpLES, uir.OpCmpLEU:
			return bd.konst(1)
		case uir.OpCmpNE, uir.OpCmpLTS, uir.OpCmpLTU:
			return bd.konst(0)
		}
	}
	// Nested masks: (x & C1) & C2 → x & (C1 & C2).
	if op == uir.OpAnd && b.kind == nConst && a.kind == nBin && a.op == uir.OpAnd && a.b.kind == nConst {
		return bd.bin(uir.OpAnd, a.a, bd.konst(a.b.val&b.val))
	}
	// Reassociate constant adds: (x + C1) + C2 → x + (C1+C2).
	if op == uir.OpAdd && b.kind == nConst && a.kind == nBin && a.op == uir.OpAdd && a.b.kind == nConst {
		return bd.bin(uir.OpAdd, a.a, bd.konst(a.b.val+b.val))
	}
	// Logical negation of a boolean: x ^ 1.
	if op == uir.OpXor {
		if c, x, ok := constOperand(a, b); ok && c.val == 1 && isBoolean(x) {
			if neg := bd.negateCompare(x); neg != nil {
				return neg
			}
			if x.kind == nUn && x.op == uir.OpBool {
				return bd.bin(uir.OpCmpEQ, x.a, bd.konst(0))
			}
		}
	}
	// ltu(0, x) → ne(x, 0)  (the "set if non-zero" idiom).
	if op == uir.OpCmpLTU && a.kind == nConst && a.val == 0 {
		return bd.bin(uir.OpCmpNE, b, bd.konst(0))
	}
	// lt(a,b) | eq(a,b) → le(a,b)  (LE synthesized from two bits).
	if op == uir.OpOr {
		if le := bd.combineLE(a, b); le != nil {
			return le
		}
		if le := bd.combineLE(b, a); le != nil {
			return le
		}
	}
	// Shift-pair extensions: (x << k) >>s k → sext, (x << k) >>u k → mask.
	if (op == uir.OpShrS || op == uir.OpShrU) && b.kind == nConst &&
		a.kind == nBin && a.op == uir.OpShl && a.b.kind == nConst && a.b.val == b.val {
		switch {
		case op == uir.OpShrS && b.val == 24:
			return bd.un(uir.OpSext8, a.a)
		case op == uir.OpShrS && b.val == 16:
			return bd.un(uir.OpSext16, a.a)
		case op == uir.OpShrU && b.val == 24:
			return bd.bin(uir.OpAnd, a.a, bd.konst(0xFF))
		case op == uir.OpShrU && b.val == 16:
			return bd.bin(uir.OpAnd, a.a, bd.konst(0xFFFF))
		}
	}
	// Commutative operand ordering by register-blind structural key;
	// stable on ties.
	if op.IsCommutative() {
		if bytes.Compare(bd.blindKey(b), bd.blindKey(a)) < 0 {
			a, b = b, a
		}
	}
	return bd.intern(nodeKey{kind: nBin, op: op, a: a, b: b})
}

// combineLE recognizes lt(a,b)|eq({a,b}) → le(a,b).
func (bd *builder) combineLE(lt, eq *node) *node {
	if lt.kind != nBin || eq.kind != nBin || eq.op != uir.OpCmpEQ {
		return nil
	}
	if lt.op != uir.OpCmpLTS && lt.op != uir.OpCmpLTU {
		return nil
	}
	sameOperands := (eq.a == lt.a && eq.b == lt.b) || (eq.a == lt.b && eq.b == lt.a)
	if !sameOperands {
		return nil
	}
	if lt.op == uir.OpCmpLTS {
		return bd.bin(uir.OpCmpLES, lt.a, lt.b)
	}
	return bd.bin(uir.OpCmpLEU, lt.a, lt.b)
}

func constOperand(a, b *node) (c, x *node, ok bool) {
	if a.kind == nConst {
		return a, b, true
	}
	if b.kind == nConst {
		return b, a, true
	}
	return nil, nil, false
}

// un builds a canonicalized unary node.
func (bd *builder) un(op uir.Op, a *node) *node {
	if a.kind == nConst {
		return bd.konst(uir.EvalUn(op, a.val))
	}
	switch op {
	case uir.OpBool:
		if isBoolean(a) {
			return a
		}
		return bd.bin(uir.OpCmpNE, a, bd.konst(0))
	case uir.OpZext8:
		return bd.bin(uir.OpAnd, a, bd.konst(0xFF))
	case uir.OpZext16:
		return bd.bin(uir.OpAnd, a, bd.konst(0xFFFF))
	case uir.OpNot:
		if a.kind == nUn && a.op == uir.OpNot {
			return a.a
		}
	case uir.OpNeg:
		if a.kind == nUn && a.op == uir.OpNeg {
			return a.a
		}
	}
	return bd.intern(nodeKey{kind: nUn, op: op, a: a})
}

// sel builds a canonicalized select node.
func (bd *builder) sel(cond, a, b *node) *node {
	if cond.kind == nConst {
		if cond.val != 0 {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	// select(c, 1, 0) → bool(c); select(c, 0, 1) → !c.
	if a.kind == nConst && b.kind == nConst {
		if a.val == 1 && b.val == 0 {
			return bd.un(uir.OpBool, cond)
		}
		if a.val == 0 && b.val == 1 {
			return bd.bin(uir.OpXor, bd.un(uir.OpBool, cond), bd.konst(1))
		}
	}
	return bd.intern(nodeKey{kind: nSel, a: cond, b: a, c: b})
}

// appendSortedRegs appends m's keys to dst in ascending register order
// (deterministic iteration for effect emission).
func appendSortedRegs(dst []uir.Reg, m map[uir.Reg]*node) []uir.Reg {
	for r := range m {
		dst = append(dst, r)
	}
	slices.Sort(dst)
	return dst
}
