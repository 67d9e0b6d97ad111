package strand

import (
	"slices"
	"sort"
	"strconv"

	"firmup/internal/obj"
	"firmup/internal/uir"
)

// Options parameterize extraction.
type Options struct {
	// ABI supplies the calling convention: argument registers feed call
	// effects, and the stack pointer renders as a stable token so stack
	// offsets survive canonicalization as the paper prescribes.
	ABI *uir.ABI
	// Sections drives offset elimination: constants inside the text or
	// data ranges are abstracted to positional offN tokens.
	Sections obj.SectionMap
	// KeepTrivial retains strands whose expression is a bare input or
	// constant; by default they are dropped as noise (every executable
	// shares them).
	KeepTrivial bool
}

// Strand is one canonical strand.
type Strand struct {
	Hash uint64
	Text string
}

// ExtractBlock decomposes one lifted basic block into canonical strands.
//
// The implementation fuses Algorithm 1 with the re-optimization step: the
// block (already in SSA form) is converted to an expression DAG by
// forward substitution — which performs constant propagation, copy
// propagation and CSE by construction — and each outward-facing effect
// (a store, a call, a control-flow exit, or the final value of an
// architectural register) becomes the basis of one strand: exactly the
// use-def chain Algorithm 1 would slice, already in simplified form.
// Dead intermediate computations disappear, mirroring DCE.
//
// Batch callers (analyzer sessions) should prefer an Extractor, which
// reuses the analysis scratch across blocks and consults the session's
// block canonicalization cache.
func ExtractBlock(b *uir.Block, opt *Options) []Strand {
	var out []Strand
	NewExtractor(opt, nil, nil).extract(b, func(hash uint64, text []byte) {
		out = append(out, Strand{Hash: hash, Text: string(text)})
	})
	return out
}

// blockState is the analyzed form of one block: the expression DAG plus
// the outward-facing effects. Exposed internally for the soundness
// property tests, which evaluate the DAG against the reference machine.
type blockState struct {
	bd      *builder
	regs    map[uir.Reg]*node
	inputs  map[uir.Reg]*node
	effects []effect
}

type effect struct {
	kind   string // "store", "call", "br", "jump", "ijump", "retx"
	a, b   *node
	args   []*node
	size   uint8
	target *node
}

// memKey identifies one store-to-load forwarding slot.
type memKey struct {
	addr *node
	size uint8
}

// extractScratch is the reusable per-worker state of block analysis
// and rendering: the node builder with its arenas, the
// forward-substitution maps, the effect list, the renderer with its
// text buffer, and the per-block strand dedup set. One scratch serves
// any number of blocks serially; reuse turns per-block map, slab and
// buffer allocations into clears.
type extractScratch struct {
	bd     *builder
	regs   map[uir.Reg]*node
	inputs map[uir.Reg]*node
	// temps holds temp values by number. Every block comes from an
	// isa.LiftBuilder, whose NewTemp numbers temps densely from 0 and
	// is always followed by the Emit that defines the temp, so every
	// temp of a block is below len(Stmts).
	temps   []*node
	mem     map[memKey]*node
	effects []effect
	args    []*node // backing store of call effects' argument lists
	st      blockState

	rd       renderer
	seen     map[uint64]struct{}
	regOrder []uir.Reg
}

func newExtractScratch() *extractScratch {
	return &extractScratch{
		bd:     newBuilder(),
		regs:   map[uir.Reg]*node{},
		inputs: map[uir.Reg]*node{},
		mem:    map[memKey]*node{},
		seen:   map[uint64]struct{}{},
	}
}

// analyzeBlock performs the forward-substitution walk with one-shot
// scratch (the soundness property tests inspect the returned state).
func analyzeBlock(b *uir.Block, opt *Options) *blockState {
	return newExtractScratch().analyze(b, opt)
}

// analyze performs the forward-substitution walk. The returned state
// aliases the scratch and is valid until the next analyze call.
func (sc *extractScratch) analyze(b *uir.Block, opt *Options) *blockState {
	sc.bd.reset()
	clear(sc.regs)
	clear(sc.inputs)
	sc.temps = slices.Grow(sc.temps[:0], len(b.Stmts))[:len(b.Stmts)]
	clear(sc.temps)
	clear(sc.mem)
	sc.effects = sc.effects[:0]
	sc.args = sc.args[:0]

	bd := sc.bd
	regs := sc.regs // current register values
	inputs := sc.inputs
	getReg := func(r uir.Reg) *node {
		if n, ok := regs[r]; ok {
			return n
		}
		n := bd.input(r)
		regs[r] = n
		inputs[r] = n
		return n
	}
	temps := sc.temps
	operand := func(o uir.Operand) *node {
		if o.IsConst {
			return bd.konst(o.Val)
		}
		return temps[o.Temp]
	}
	mem := sc.mem
	effects := sc.effects
	callCount := 0

	for _, s := range b.Stmts {
		switch v := s.(type) {
		case uir.Get:
			temps[v.Dst] = getReg(v.Reg)
		case uir.Put:
			regs[v.Reg] = operand(v.Src)
		case uir.Mov:
			temps[v.Dst] = operand(v.Src)
		case uir.Bin:
			temps[v.Dst] = bd.bin(v.Op, operand(v.A), operand(v.B))
		case uir.Un:
			temps[v.Dst] = bd.un(v.Op, operand(v.A))
		case uir.Sel:
			temps[v.Dst] = bd.sel(operand(v.Cond), operand(v.A), operand(v.B))
		case uir.Load:
			addr := operand(v.Addr)
			k := memKey{addr, v.Size}
			if val, ok := mem[k]; ok {
				temps[v.Dst] = val // store-to-load forwarding
			} else {
				temps[v.Dst] = bd.load(addr, v.Size)
			}
		case uir.Store:
			addr := operand(v.Addr)
			val := operand(v.Src)
			mem[memKey{addr, v.Size}] = val
			effects = append(effects, effect{kind: "store", a: addr, b: val, size: v.Size})
		case uir.Call:
			var args []*node
			if opt.ABI != nil {
				start := len(sc.args)
				for _, r := range opt.ABI.ArgRegs {
					sc.args = append(sc.args, getReg(r))
				}
				args = sc.args[start:len(sc.args):len(sc.args)]
				// Clobber caller-saved state.
				for _, r := range opt.ABI.Scratch {
					delete(regs, r)
				}
				regs[opt.ABI.RetReg] = bd.callRes(callCount)
			}
			effects = append(effects, effect{kind: "call", args: args, target: operand(v.Target)})
			callCount++
		case uir.Exit:
			switch v.Kind {
			case uir.ExitJump:
				effects = append(effects, effect{kind: "jump", target: operand(v.Target)})
			case uir.ExitCond:
				effects = append(effects, effect{kind: "br", a: operand(v.Cond), target: operand(v.Target)})
			case uir.ExitRet:
				effects = append(effects, effect{kind: "retx"})
			case uir.ExitIndir:
				effects = append(effects, effect{kind: "ijump", target: operand(v.Target)})
			}
		}
	}

	sc.effects = effects
	sc.st = blockState{bd: bd, regs: regs, inputs: inputs, effects: effects}
	return &sc.st
}

// excludedRegs lists the registers whose final values are not
// outward-facing: the stack pointer, link register and status flags.
// Their updates are universal scaffolding, not procedure semantics.
func excludedRegs(opt *Options) []uir.Reg {
	abi := opt.ABI
	if abi == nil {
		return nil
	}
	out := []uir.Reg{abi.SP}
	if abi.LinkReg != uir.NoLinkReg {
		out = append(out, abi.LinkReg)
	}
	return append(out, abi.Status()...)
}

// render turns the block last analyzed into canonical strands, calling
// emit once per distinct strand (by hash) in emission order. text is
// the strand's canonical text; it aliases the renderer's buffer and is
// valid only during the call.
func (sc *extractScratch) render(opt *Options, excluded []uir.Reg, emit func(hash uint64, text []byte)) {
	st := &sc.st
	rd := &sc.rd
	rd.bd, rd.opt = st.bd, opt
	clear(sc.seen)
	add := func() {
		hash := fnv64a(rd.buf)
		if _, dup := sc.seen[hash]; dup {
			return
		}
		sc.seen[hash] = struct{}{}
		emit(hash, rd.buf)
	}

	// Final register values are outward-facing (register folding drops
	// the destination identity).
	sc.regOrder = appendSortedRegs(sc.regOrder[:0], st.regs)
	for _, r := range sc.regOrder {
		if slices.Contains(excluded, r) {
			continue
		}
		n := st.regs[r]
		if st.inputs[r] == n {
			continue // register unchanged
		}
		if !opt.KeepTrivial && isTrivial(n) {
			continue
		}
		rd.begin()
		rd.basis1("ret ", rd.expr(n))
		add()
	}
	for _, e := range st.effects {
		switch e.kind {
		case "store":
			rd.begin()
			addr := rd.expr(e.a)
			val := rd.expr(e.b)
			rd.buf = append(rd.buf, "store"...)
			rd.buf = strconv.AppendUint(rd.buf, uint64(e.size), 10)
			rd.buf = append(rd.buf, ' ')
			rd.buf = appendTok(rd.buf, addr)
			rd.buf = append(rd.buf, " <- "...)
			rd.buf = appendTok(rd.buf, val)
		case "call":
			rd.begin()
			rd.toks = rd.toks[:0]
			for _, a := range e.args {
				rd.toks = append(rd.toks, rd.expr(a))
			}
			rd.buf = append(rd.buf, "call proc("...)
			for i, t := range rd.toks {
				if i > 0 {
					rd.buf = append(rd.buf, ", "...)
				}
				rd.buf = appendTok(rd.buf, t)
			}
			rd.buf = append(rd.buf, ')')
		case "br":
			rd.begin()
			cond := rd.expr(e.a)
			target := rd.exprTarget(e.target)
			rd.buf = append(rd.buf, "br "...)
			rd.buf = appendTok(rd.buf, cond)
			rd.buf = append(rd.buf, " -> "...)
			rd.buf = appendTok(rd.buf, target)
		case "jump":
			if !opt.KeepTrivial {
				continue // unconditional jumps carry no semantics
			}
			rd.begin()
			rd.basis1("jump ", rd.exprTarget(e.target))
		case "ijump":
			rd.begin()
			rd.basis1("ijump ", rd.expr(e.target))
		default:
			// A bare return ("retx") carries no data flow; covered by
			// the ret-reg value strand.
			continue
		}
		add()
	}
}

// fnv64a is FNV-1a over b (hash/fnv's New64a, inlined).
func fnv64a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// isTrivial reports whether the node is a bare input or call result —
// strands every block everywhere shares. Bare constants are kept: a
// specific returned constant (e.g. an error code) is real signal.
func isTrivial(n *node) bool {
	switch n.kind {
	case nInput, nCallRes:
		return true
	}
	return false
}

// tokKind classifies a rendered operand token.
type tokKind uint8

const (
	tokLet   tokKind = iota // nK: a let-bound interior node
	tokSP                   // sp
	tokArg                  // argK: an input register by order of appearance
	tokCRes                 // cresK: a call result by order of appearance
	tokConst                // 0x…: a plain constant
	tokOff                  // offK: a text/data offset by order of appearance
	tokNone                 // ?: a missing control-transfer target
)

// token is one operand of a rendered strand: a kind plus its number.
type token struct {
	kind tokKind
	v    uint32
}

// renderer linearizes one strand into canonical text with names assigned
// in order of appearance. The text accumulates in buf — let-bindings,
// one per line, then the basis line — which is reused across strands
// and blocks. Per-strand memos live on the nodes, stamped with the
// strand's generation, so starting a strand clears nothing.
type renderer struct {
	bd    *builder
	opt   *Options
	gen   uint32
	nargs uint32 // argK/cresK numbers assigned so far
	nlets uint32
	offs  []uint32 // offset constants, numbered by index
	toks  []token
	buf   []byte
}

// begin starts a new strand.
func (rd *renderer) begin() {
	rd.bd.gen++
	if rd.bd.gen == 0 {
		rd.bd.gen = 1 // fresh nodes carry generation 0
	}
	rd.gen = rd.bd.gen
	rd.nargs, rd.nlets = 0, 0
	rd.offs = rd.offs[:0]
	rd.buf = rd.buf[:0]
}

// basis1 appends a one-operand basis line.
func (rd *renderer) basis1(prefix string, t token) {
	rd.buf = append(rd.buf, prefix...)
	rd.buf = appendTok(rd.buf, t)
}

// classify applies offset elimination to a constant.
func (rd *renderer) classify(v uint32) token {
	m := rd.opt.Sections
	inText := m.TextHi > m.TextLo && v >= m.TextLo && v < m.TextHi
	inData := m.DataHi > m.DataLo && v >= m.DataLo && v < m.DataHi
	if inText || inData {
		idx := slices.Index(rd.offs, v)
		if idx < 0 {
			idx = len(rd.offs)
			rd.offs = append(rd.offs, v)
		}
		return token{tokOff, uint32(idx)}
	}
	return token{tokConst, v}
}

// appendTok appends t's text to dst.
func appendTok(dst []byte, t token) []byte {
	switch t.kind {
	case tokLet:
		dst = append(dst, 'n')
	case tokSP:
		return append(dst, "sp"...)
	case tokArg:
		dst = append(dst, "arg"...)
	case tokCRes:
		dst = append(dst, "cres"...)
	case tokConst:
		return strconv.AppendUint(append(dst, "0x"...), uint64(t.v), 16)
	case tokOff:
		dst = append(dst, "off"...)
	case tokNone:
		return append(dst, '?')
	}
	return strconv.AppendUint(dst, uint64(t.v), 10)
}

// expr renders a node to its operand token, first emitting let-bindings
// for its interior operation nodes (children before parents) so shared
// subexpressions render once.
func (rd *renderer) expr(n *node) token {
	if n.rgen == rd.gen {
		return n.rtok
	}
	var t token
	switch n.kind {
	case nConst:
		t = rd.classify(n.val)
	case nInput:
		if rd.opt.ABI != nil && n.reg == rd.opt.ABI.SP {
			t = token{kind: tokSP}
		} else {
			t = token{tokArg, rd.nargs}
			rd.nargs++
		}
	case nCallRes:
		// The k-th call result; k is block-relative which is stable
		// across compilations of the same block.
		t = token{tokCRes, rd.nargs}
		rd.nargs++
	case nLoad:
		a := rd.expr(n.a)
		t = rd.let()
		rd.buf = append(rd.buf, "load"...)
		rd.buf = strconv.AppendUint(rd.buf, uint64(n.size), 10)
		rd.buf = append(rd.buf, '(')
		rd.buf = appendTok(rd.buf, a)
		rd.buf = append(rd.buf, ")\n"...)
	case nBin:
		a := rd.expr(n.a)
		b := rd.expr(n.b)
		t = rd.let()
		rd.buf = append(rd.buf, n.op.String()...)
		rd.buf = append(rd.buf, '(')
		rd.buf = appendTok(rd.buf, a)
		rd.buf = append(rd.buf, ", "...)
		rd.buf = appendTok(rd.buf, b)
		rd.buf = append(rd.buf, ")\n"...)
	case nUn:
		a := rd.expr(n.a)
		t = rd.let()
		rd.buf = append(rd.buf, n.op.String()...)
		rd.buf = append(rd.buf, '(')
		rd.buf = appendTok(rd.buf, a)
		rd.buf = append(rd.buf, ")\n"...)
	case nSel:
		a := rd.expr(n.a)
		b := rd.expr(n.b)
		c := rd.expr(n.c)
		t = rd.let()
		rd.buf = append(rd.buf, "select("...)
		rd.buf = appendTok(rd.buf, a)
		rd.buf = append(rd.buf, ", "...)
		rd.buf = appendTok(rd.buf, b)
		rd.buf = append(rd.buf, ", "...)
		rd.buf = appendTok(rd.buf, c)
		rd.buf = append(rd.buf, ")\n"...)
	}
	n.rgen, n.rtok = rd.gen, t
	return t
}

// let numbers the next let-binding and appends its "nK = " prefix; the
// caller appends the bound expression and the line break.
func (rd *renderer) let() token {
	t := token{tokLet, rd.nlets}
	rd.nlets++
	rd.buf = appendTok(rd.buf, t)
	rd.buf = append(rd.buf, " = "...)
	return t
}

// exprTarget renders a control-transfer target: code constants are fully
// abstracted.
func (rd *renderer) exprTarget(n *node) token {
	if n == nil {
		return token{kind: tokNone}
	}
	if n.kind == nConst {
		return rd.classify(n.val)
	}
	return rd.expr(n)
}

// ConstMarkers collects a procedure's distinctive plain constants — the
// automated analog of the paper's semi-manual confirmation "markers such
// as string constants, use of global memory, structures access".
//
// Markers are read off the canonical strands, after constant folding and
// offset elimination, so split address materializations (lui/ori halves)
// never leak in. Constants that are small, powers of two, all-ones masks,
// aligned offset-shaped values, or negatives carry no identity and are
// skipped; what remains (protocol codes, magic numbers, hash multipliers)
// fingerprints the source procedure across compilations.
func ConstMarkers(blocks []*uir.Block, opt *Options) []uint32 {
	seen := map[uint32]bool{}
	for _, b := range blocks {
		for _, st := range ExtractBlock(b, opt) {
			collectHexConstants([]byte(st.Text), func(v uint32) {
				if isMarker(v) {
					seen[v] = true
				}
			})
		}
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isMarker filters constants down to identity-bearing ones.
func isMarker(v uint32) bool {
	switch {
	case v <= 8:
		return false // tiny values: loop bounds, flags
	case v&(v-1) == 0:
		return false // power of two: sizes, bit flags
	case v&(v+1) == 0:
		return false // all-ones: width masks (0x1f, 0xff, 0xffff, ...)
	case v%4 == 0 && v < 0x1000:
		return false // word-aligned small value: stack/struct offsets
	case v >= 0xFFFF0000:
		return false // small negative
	}
	return true
}

// collectHexConstants invokes f for every 0x-prefixed literal in a
// canonical strand text (offsets were already abstracted to offN tokens).
func collectHexConstants(text []byte, f func(uint32)) {
	for i := 0; i+2 < len(text); i++ {
		if text[i] != '0' || text[i+1] != 'x' {
			continue
		}
		j := i + 2
		var v uint64
		for j < len(text) {
			c := text[j]
			switch {
			case c >= '0' && c <= '9':
				v = v<<4 | uint64(c-'0')
			case c >= 'a' && c <= 'f':
				v = v<<4 | uint64(c-'a'+10)
			default:
				goto done
			}
			j++
		}
	done:
		if j > i+2 && v <= 0xFFFFFFFF {
			f(uint32(v))
		}
		i = j - 1
	}
}

// MarkerOverlap computes the fraction of q's markers present in t (both
// sorted). Returns 1 when q has no markers to check.
func MarkerOverlap(q, t []uint32) float64 {
	if len(q) == 0 {
		return 1
	}
	i, j, n := 0, 0, 0
	for i < len(q) && j < len(t) {
		switch {
		case q[i] == t[j]:
			n++
			i++
			j++
		case q[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return float64(n) / float64(len(q))
}

// Interner maps 64-bit canonical strand hashes to dense IDs shared
// across every executable analyzed under one session. Implementations
// must be safe for concurrent use and assign each hash exactly one ID
// for the interner's lifetime.
type Interner interface {
	Intern(hash uint64) uint32
}

// BulkInterner is an Interner that can intern a whole batch per lock
// round. Interned and the block extractor prefer it when available.
type BulkInterner interface {
	Interner
	// InternAll appends the dense IDs of hashes to out and returns it,
	// in input order.
	InternAll(hashes []uint64, out []uint32) []uint32
}

// Rebased is an Interner layered over a base interner whose ID space it
// extends without mutating: hashes known to the base keep their base
// IDs, and hashes the base has never seen are assigned private IDs
// strictly above the base's ID space. A sealed corpus hands each query
// such an overlay, so query analysis never writes to shared state while
// the query's known-strand IDs stay directly comparable with the
// corpus's.
type Rebased interface {
	Interner
	// BaseInterner returns the read-only interner this overlay extends.
	BaseInterner() Interner
}

// Compatible reports whether a set interned by q carries dense IDs
// valid against the ID space of a set (or index) interned by t. That
// holds when the two are the same interner, or when one is a Rebased
// overlay of the other: overlay IDs for base-known hashes are the base
// IDs themselves, and overlay-private IDs lie above the base space so
// they can never collide with a base-assigned ID. Two distinct overlays
// of one base are NOT compatible — their private IDs overlap while
// standing for different hashes.
func Compatible(q, t Interner) bool {
	if q == nil || t == nil {
		return false
	}
	if q == t {
		return true
	}
	if r, ok := q.(Rebased); ok && r.BaseInterner() == t {
		return true
	}
	if r, ok := t.(Rebased); ok && r.BaseInterner() == q {
		return true
	}
	return false
}

// Set is a procedure's strand-hash set, the unit Sim operates on.
type Set struct {
	Hashes []uint64 // sorted, unique
	// IDs are the dense interned equivalents of Hashes (sorted, unique),
	// present only when the set was built under an analyzer session.
	IDs []uint32
	// It is the session interner that assigned IDs. Two sets are
	// ID-comparable only when they share the same It.
	It Interner
}

// Interned returns a copy of the set with dense IDs assigned by it.
// A nil interner returns the set unchanged.
func (s Set) Interned(it Interner) Set {
	if it == nil {
		return s
	}
	ids := internAll(it, s.Hashes, make([]uint32, 0, len(s.Hashes)))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return Set{Hashes: s.Hashes, IDs: ids, It: it}
}

// internAll interns hashes in input order, using the bulk path when the
// interner supports it.
func internAll(it Interner, hashes []uint64, out []uint32) []uint32 {
	if bi, ok := it.(BulkInterner); ok {
		return bi.InternAll(hashes, out)
	}
	for _, h := range hashes {
		out = append(out, it.Intern(h))
	}
	return out
}

// FromBlocks extracts and merges strands of all blocks of a procedure.
func FromBlocks(blocks []*uir.Block, opt *Options) Set {
	seen := map[uint64]bool{}
	for _, b := range blocks {
		for _, s := range ExtractBlock(b, opt) {
			seen[s.Hash] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Set{Hashes: out}
}

// Size returns the number of unique strands.
func (s Set) Size() int { return len(s.Hashes) }

// Intersect counts shared strands between two sorted sets: the paper's
// Sim(q, t).
func (s Set) Intersect(t Set) int {
	i, j, n := 0, 0, 0
	for i < len(s.Hashes) && j < len(t.Hashes) {
		switch {
		case s.Hashes[i] == t.Hashes[j]:
			n++
			i++
			j++
		case s.Hashes[i] < t.Hashes[j]:
			i++
		default:
			j++
		}
	}
	return n
}
