package strand

import (
	"slices"
	"sync"
	"sync/atomic"

	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Telemetry is the optional handle set extraction records against; a
// nil pointer (and any nil field) disables the corresponding metric.
// It deliberately lives outside Options: Options is hashed into the
// block-cache context seed (contextSeed), and telemetry must never
// influence cache keys.
type Telemetry struct {
	// Blocks counts blocks canonicalized (cache hits included).
	Blocks *telemetry.Counter
	// Computed counts blocks that ran full extraction (cache misses
	// plus uncached extractors).
	Computed *telemetry.Counter
	// Strands counts canonical strands produced by full extraction.
	Strands *telemetry.Counter
}

// blockEntry is one cached canonicalization result: everything the
// analysis pipeline derives from a single lifted block, ready to merge
// into a procedure without re-running extraction.
type blockEntry struct {
	// hashes are the block's canonical strand hashes, sorted unique.
	hashes []uint64
	// ids are the dense interned equivalents of hashes, sorted unique;
	// nil when the cache's session has no interner.
	ids []uint32
	// markers are the block's identity-bearing constants (see
	// ConstMarkers), sorted unique.
	markers []uint32
}

// BlockCache is a session-scoped block canonicalization cache: it maps
// the pre-canonical fingerprint of a lifted basic block to the block's
// already-computed canonical strand hashes, dense strand IDs and marker
// constants. Firmware corpora are massively self-similar — the same
// statically-linked library code repeats across executables and images
// — so a session analyzing many executables sees the same block over
// and over; a hit skips strand extraction, compiler-style
// re-optimization, hashing and interning for that block.
//
// Soundness: an entry is keyed by a 128-bit fingerprint of the block's
// statement stream seeded with a hash of the full extraction context
// (ABI, options, absolute section map) — exactly the inputs extraction
// is a pure function of — so fingerprint equality implies identical
// canonical strands up to hash collision (see uir.BlockFingerprint).
//
// A BlockCache is safe for concurrent use; entries are immutable once
// published. Dense IDs are only meaningful under the session interner
// the cache was created for: extractors attached to a different
// interner bypass the cache entirely.
type BlockCache struct {
	it   Interner
	mu   sync.RWMutex
	m    map[uir.Fingerprint]*blockEntry
	seen atomic.Int64
	hits atomic.Int64
}

// NewBlockCache creates an empty cache bound to a session interner
// (which may be nil for session-less use; entries then carry no dense
// IDs).
func NewBlockCache(it Interner) *BlockCache {
	return &BlockCache{it: it, m: map[uir.Fingerprint]*blockEntry{}}
}

// CacheStats summarizes a BlockCache's traffic.
type CacheStats struct {
	// Blocks is the number of blocks looked up.
	Blocks int64
	// Hits is the number of lookups answered from the cache.
	Hits int64
	// Unique is the number of distinct canonicalized blocks stored.
	Unique int
}

// HitRate returns Hits/Blocks, or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Blocks)
}

// Stats reports the cache's lookup and occupancy counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.RLock()
	unique := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Blocks: c.seen.Load(), Hits: c.hits.Load(), Unique: unique}
}

func (c *BlockCache) lookup(k uir.Fingerprint) *blockEntry {
	c.mu.RLock()
	e := c.m[k]
	c.mu.RUnlock()
	c.seen.Add(1)
	if e != nil {
		c.hits.Add(1)
	}
	return e
}

// store publishes an entry, first-writer-wins: by the soundness
// contract concurrent writers computed identical entries, so keeping
// either is correct and the returned entry is the canonical one.
func (c *BlockCache) store(k uir.Fingerprint, e *blockEntry) *blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	c.m[k] = e
	return e
}

// Extractor is a per-worker front end to strand extraction: it owns the
// reusable analysis scratch (node arena, substitution maps, renderer)
// and consults the session's BlockCache. An Extractor is NOT safe for
// concurrent use — create one per worker goroutine; the cache behind
// them is shared.
type Extractor struct {
	opt    *Options
	it     Interner
	cache  *BlockCache
	seed   uint64
	ranges uir.SectionRanges

	sc *extractScratch
	// excluded are the registers whose final values never become
	// strands (see excludedRegs); fixed by opt.
	excluded []uir.Reg
	// cur is the block entry compute fills, reused across blocks;
	// entries published to the cache are copies.
	cur blockEntry
	// merge scratch, reused across procedures.
	accH, tmpH []uint64
	accI, tmpI []uint32
	accM, tmpM []uint32

	// telemetry handles, copied out of the Telemetry struct so recording
	// is an unconditional nil-safe call.
	telBlocks   *telemetry.Counter
	telComputed *telemetry.Counter
	telStrands  *telemetry.Counter
}

// NewExtractor creates an extractor for one executable's extraction
// options under an analyzer session. A nil cache — or a cache bound to
// a different interner than it — disables caching; extraction then
// still runs single-pass with reused scratch.
func NewExtractor(opt *Options, it Interner, cache *BlockCache) *Extractor {
	return NewExtractorWith(opt, it, cache, nil)
}

// NewExtractorWith is NewExtractor recording extraction metrics into
// tel. Extraction output (and cache keys) are identical.
func NewExtractorWith(opt *Options, it Interner, cache *BlockCache, tel *Telemetry) *Extractor {
	ex := &Extractor{opt: opt, it: it, sc: newExtractScratch(), excluded: excludedRegs(opt)}
	if cache != nil && cache.it == it {
		ex.cache = cache
		ex.seed = contextSeed(opt)
		ex.ranges = uir.SectionRanges{
			TextLo: opt.Sections.TextLo, TextHi: opt.Sections.TextHi,
			DataLo: opt.Sections.DataLo, DataHi: opt.Sections.DataHi,
		}
	}
	if tel != nil {
		ex.telBlocks = tel.Blocks
		ex.telComputed = tel.Computed
		ex.telStrands = tel.Strands
	}
	return ex
}

// contextSeed hashes every extraction input that is not part of the
// block itself: the options and the absolute section map. Folding it
// into the fingerprint seed keys the cache per extraction context, which
// is what makes a fingerprint hit imply identical canonical strands.
func contextSeed(opt *Options) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(w uint64) { h = (h ^ w) * prime }
	if opt.KeepTrivial {
		word(1)
	}
	m := opt.Sections
	word(uint64(m.TextLo))
	word(uint64(m.TextHi))
	word(uint64(m.DataLo))
	word(uint64(m.DataHi))
	if abi := opt.ABI; abi != nil {
		word(2)
		word(uint64(abi.Arch))
		word(uint64(abi.RetReg))
		word(uint64(abi.SP))
		word(uint64(abi.LinkReg))
		for _, r := range abi.ArgRegs {
			word(3<<32 | uint64(r))
		}
		for _, r := range abi.Scratch {
			word(4<<32 | uint64(r))
		}
		for _, r := range abi.StatusRegs {
			word(5<<32 | uint64(r))
		}
	}
	return h
}

// Proc extracts every block of one procedure in a single pass,
// returning the merged canonical strand set (with dense IDs when under
// a session) and the procedure's marker constants. It replaces the
// FromBlocks + ConstMarkers pair, which each re-extracted every block.
func (ex *Extractor) Proc(blocks []*uir.Block) (Set, []uint32) {
	ex.accH = ex.accH[:0]
	ex.accI = ex.accI[:0]
	ex.accM = ex.accM[:0]
	for _, b := range blocks {
		e := ex.block(b)
		ex.accH, ex.tmpH = mergeU64(ex.tmpH[:0], ex.accH, e.hashes), ex.accH
		ex.accM, ex.tmpM = mergeU32(ex.tmpM[:0], ex.accM, e.markers), ex.accM
		if e.ids != nil {
			ex.accI, ex.tmpI = mergeU32(ex.tmpI[:0], ex.accI, e.ids), ex.accI
		}
	}
	set := Set{Hashes: append(make([]uint64, 0, len(ex.accH)), ex.accH...)}
	if ex.it != nil {
		set.IDs = append(make([]uint32, 0, len(ex.accI)), ex.accI...)
		set.It = ex.it
	}
	var markers []uint32
	if len(ex.accM) > 0 {
		markers = append(make([]uint32, 0, len(ex.accM)), ex.accM...)
	}
	return set, markers
}

// block returns the canonicalization of one block, from the cache when
// possible. Without a cache the entry is the extractor's reusable
// scratch entry, valid until the next call.
func (ex *Extractor) block(b *uir.Block) *blockEntry {
	ex.telBlocks.Inc()
	if ex.cache == nil {
		ex.compute(b)
		return &ex.cur
	}
	k := uir.BlockFingerprint(b, ex.ranges, ex.seed)
	if e := ex.cache.lookup(k); e != nil {
		return e
	}
	ex.compute(b)
	return ex.cache.store(k, ex.cur.clone())
}

// extract analyzes one block and renders its strands through emit (see
// extractScratch.render).
func (ex *Extractor) extract(b *uir.Block, emit func(hash uint64, text []byte)) {
	ex.sc.analyze(b, ex.opt)
	ex.sc.render(ex.opt, ex.excluded, emit)
}

// compute runs extraction for one block into ex.cur: sorted strand
// hashes, sorted unique markers read off the strand texts, and sorted
// dense IDs under a session.
func (ex *Extractor) compute(b *uir.Block) {
	e := &ex.cur
	e.hashes, e.markers, e.ids = e.hashes[:0], e.markers[:0], e.ids[:0]
	ex.extract(b, func(hash uint64, text []byte) {
		e.hashes = append(e.hashes, hash)
		collectHexConstants(text, func(v uint32) {
			if isMarker(v) {
				e.markers = append(e.markers, v)
			}
		})
	})
	ex.telComputed.Inc()
	ex.telStrands.Add(int64(len(e.hashes)))
	// Strands are unique by hash already (render dedups); sort for merge.
	slices.Sort(e.hashes)
	slices.Sort(e.markers)
	e.markers = slices.Compact(e.markers)
	if ex.it != nil && len(e.hashes) > 0 {
		e.ids = internAll(ex.it, e.hashes, e.ids)
		slices.Sort(e.ids)
	}
}

// clone returns an exactly-sized copy of e for publication, keeping the
// empty-slice conventions of a fresh entry: no hashes means no IDs or
// markers, and nil IDs mean no session.
func (e *blockEntry) clone() *blockEntry {
	c := &blockEntry{}
	if len(e.hashes) > 0 {
		c.hashes = slices.Clone(e.hashes)
		if e.ids != nil {
			c.ids = slices.Clone(e.ids)
		}
	}
	if len(e.markers) > 0 {
		c.markers = slices.Clone(e.markers)
	}
	return c
}

// mergeU64 appends the sorted-unique union of a and b (each sorted
// unique) to dst and returns it.
func mergeU64(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// mergeU32 is mergeU64 for uint32 slices.
func mergeU32(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
