package firmup

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"unsafe"

	"firmup/internal/core"
	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// This file is the store side of SealedCorpus: a sealed corpus keeps
// its bulk state in FWCORP v2 shards (mapped files, or Seal's in-memory
// shard) and materializes per-executable session objects lazily, on
// first search touch. The prefilter makes that pay off: a
// query's candidate set is computed from the shard's CSR slabs before
// any executable exists in RAM, so only candidates are ever
// materialized, and peak RSS tracks the working set instead of the
// corpus.

// sealedStore binds one open shard to the corpus-wide frozen
// vocabulary. All images of the shard share it.
type sealedStore struct {
	shard  *snapshot.CorpusShard
	frozen *corpusindex.Frozen
}

// lazyExe is one executable's materialize-once slot.
type lazyExe struct {
	once sync.Once
	exe  *Executable
	err  error
}

// sealedShardRef is one shard of an open sharded corpus.
type sealedShardRef struct {
	store *sealedStore
	path  string
	base  int // global index of the shard's first image
	n     int // image count
}

// SealedShard describes one shard of an open sealed corpus, for health
// reporting (firmupd /corpus). Path is empty for the in-memory shard
// of a corpus returned by Seal.
type SealedShard struct {
	Index       int    `json:"index"`
	Path        string `json:"path"`
	Images      int    `json:"images"`
	Executables int    `json:"executables"`
	SizeBytes   int64  `json:"size_bytes"`
	Mapped      bool   `json:"mapped"`
}

// Shards describes the shards backing this corpus, in shard order.
func (sc *SealedCorpus) Shards() []SealedShard {
	out := make([]SealedShard, len(sc.shards))
	for i, ref := range sc.shards {
		nexes := 0
		for _, im := range sc.images[ref.base : ref.base+ref.n] {
			nexes += im.nExes
		}
		out[i] = SealedShard{
			Index:       i,
			Path:        ref.path,
			Images:      ref.n,
			Executables: nexes,
			SizeBytes:   ref.store.shard.SizeBytes(),
			Mapped:      ref.store.shard.Mapped(),
		}
	}
	return out
}

// Close releases the shard mappings. Searches must have drained first:
// materialized executables alias the mapped slabs. Close on a corpus
// returned by Seal is a no-op.
func (sc *SealedCorpus) Close() error {
	var errs []error
	for _, ref := range sc.shards {
		if err := ref.store.shard.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// materialize returns executable i of the image, building it from the
// shard on first use. Safe for concurrent callers.
func (im *SealedImage) materialize(i int) (*Executable, error) {
	le := &im.lazy[i]
	le.once.Do(func() { le.exe, le.err = im.store.loadExe(im.storeImg, i) })
	return le.exe, le.err
}

// loadExe materializes one executable from the shard: strand IDs and
// markers alias the shard's slabs (they are immutable), hashes are
// recovered through the frozen vocabulary, and the result binds to the
// frozen interner.
func (st *sealedStore) loadExe(storeImg, i int) (*Executable, error) {
	ed, err := st.shard.Exe(storeImg, i)
	if err != nil {
		return nil, err
	}
	vocab := st.frozen.Vocab()
	procs := make([]*sim.Proc, len(ed.Procs))
	for pi := range ed.Procs {
		pd := &ed.Procs[pi]
		hashes := make([]uint64, len(pd.IDs))
		for k, id := range pd.IDs {
			hashes[k] = vocab[id]
		}
		// Set invariant: Hashes sorted ascending (IDs already are).
		sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
		p := &sim.Proc{
			Name:       pd.Name,
			Addr:       pd.Addr,
			Exported:   pd.Exported,
			Set:        strand.Set{Hashes: hashes, IDs: pd.IDs, It: st.frozen},
			Markers:    pd.Markers,
			BlockCount: pd.BlockCount,
			EdgeCount:  pd.EdgeCount,
			InstCount:  pd.InstCount,
		}
		if len(pd.Calls) > 0 {
			p.Calls = make([]int, len(pd.Calls))
			for k, c := range pd.Calls {
				p.Calls[k] = int(c)
			}
		}
		procs[pi] = p
	}
	for pi, p := range procs {
		for _, cl := range p.Calls {
			procs[cl].CalledBy = append(procs[cl].CalledBy, pi)
		}
	}
	e := sim.FromProcsSession(ed.Path, procs, st.frozen)
	e.Arch = uir.Arch(ed.Arch)
	e.Stripped = ed.Stripped
	return &Executable{Path: ed.Path, exe: e}, nil
}

// ensureIndex builds the image's frozen index directly over the shard's
// CSR slabs, once.
func (im *SealedImage) ensureIndex() error {
	im.idxOnce.Do(func() {
		slabs, err := im.store.shard.Index(im.storeImg)
		if err != nil {
			im.idxErr = err
			return
		}
		if slabs == nil {
			return // sealed without an index: exhaustive search
		}
		counts, err := im.store.shard.ProcCounts(im.storeImg)
		if err != nil {
			im.idxErr = err
			return
		}
		idx, err := corpusindex.NewFrozenIndexForeign(im.store.frozen, counts, slabs.RowIDs, slabs.RowEnds, postsToIndex(slabs.Posts))
		if err != nil {
			// Semantic index violations are shard corruption, reported
			// under the same contract as every other decode failure.
			im.idxErr = &snapshot.CorruptError{Section: "corpus-index-posts", Reason: err.Error()}
			return
		}
		if im.tel != nil {
			idx.SetTelemetry(im.tel)
		}
		im.index = idx
	})
	return im.idxErr
}

// ensureAll materializes every executable of the image and publishes
// Exes/targets, once.
func (im *SealedImage) ensureAll() error {
	im.allOnce.Do(func() {
		exes := make([]*Executable, im.nExes)
		targets := make([]*sim.Exe, im.nExes)
		for i := range exes {
			e, err := im.materialize(i)
			if err != nil {
				im.allErr = err
				return
			}
			exes[i] = e
			targets[i] = e.exe
		}
		im.Exes = exes
		im.targets = targets
	})
	return im.allErr
}

// postsToIndex views the shard's posting slab as corpusindex postings.
// Both types are (exe int32, proc int32); when their layouts agree the
// conversion is a cast, not a copy.
func postsToIndex(sp []snapshot.Posting) []corpusindex.Posting {
	if len(sp) == 0 {
		return nil
	}
	if unsafe.Sizeof(snapshot.Posting{}) == unsafe.Sizeof(corpusindex.Posting{}) &&
		unsafe.Offsetof(snapshot.Posting{}.Proc) == unsafe.Offsetof(corpusindex.Posting{}.Proc) {
		return unsafe.Slice((*corpusindex.Posting)(unsafe.Pointer(&sp[0])), len(sp))
	}
	out := make([]corpusindex.Posting, len(sp))
	for i, p := range sp {
		out[i] = corpusindex.Posting{Exe: p.Exe, Proc: p.Proc}
	}
	return out
}

// storeCandidates builds the single candidate function both the
// materialization pass and the game prefilter call. Using one closure
// for both keeps the sets identical by construction: a game can only
// probe target slots the materialization pass filled.
func storeCandidates(idx *corpusindex.FrozenIndex, minScore int, minRatio float64) func(q *sim.Exe, qpi int, _ []*sim.Exe) ([]int, bool) {
	return func(q *sim.Exe, qpi int, _ []*sim.Exe) ([]int, bool) {
		return idx.CandidateIndices(q.Procs[qpi].Set, minScore, minRatio, nil)
	}
}

// storeSearch runs one query procedure against one image: candidates
// come off the shard's CSR index first, and only candidate executables
// are materialized. Findings, examined counts and step histograms are
// byte-identical to the live session's search — core.Search runs the
// same index prefilter, and non-candidate target slots are never
// dereferenced. parent is the trace span the search spans attach under
// — the caller's TraceSpan for direct searches, the per-shard span
// inside a corpus-wide fan-out.
func (sc *SealedCorpus) storeSearch(query *Executable, qi int, img *SealedImage, opt *Options, parent telemetry.SpanID) (*SearchResult, error) {
	s := opt.search()
	s.TraceParent = parent
	if err := img.ensureIndex(); err != nil {
		return nil, err
	}
	exhaustive := opt != nil && opt.Exhaustive
	if idx := img.index; idx != nil && !exhaustive {
		cand := storeCandidates(idx, s.MinScore, s.MinRatio)
		cands, ok := cand(query.exe, qi, nil)
		if ok {
			msp := s.Trace.Start("store.materialize", parent)
			msp.SetAttr("candidates", int64(len(cands)))
			targets := make([]*sim.Exe, img.nExes)
			for _, ti := range cands {
				e, err := img.materialize(ti)
				if err != nil {
					msp.End()
					return nil, err
				}
				targets[ti] = e.exe
			}
			msp.End()
			s.Prefilter = cand
			return searchResultFromCore(core.Search(query.exe, qi, targets, s)), nil
		}
	}
	// Unindexed, exhaustive, or the index reported no information:
	// every executable is examined, so materialize the image.
	if err := img.ensureAll(); err != nil {
		return nil, err
	}
	return searchResultFromCore(core.Search(query.exe, qi, img.targets, s)), nil
}

// storeSearchBatch is storeSearch for a batched pass: the union of all
// queries' candidate sets is materialized, then one shared-matcher
// core.SearchBatch runs over the nil-padded target slice.
func (sc *SealedCorpus) storeSearchBatch(cqs []core.BatchQuery, img *SealedImage, opt *Options, parent telemetry.SpanID) ([]*SearchResult, error) {
	s := opt.search()
	s.TraceParent = parent
	if err := img.ensureIndex(); err != nil {
		return nil, err
	}
	exhaustive := opt != nil && opt.Exhaustive
	if idx := img.index; idx != nil && !exhaustive {
		cand := storeCandidates(idx, s.MinScore, s.MinRatio)
		need := make([]bool, img.nExes)
		narrow := true
		for _, cq := range cqs {
			cands, ok := cand(cq.Q, cq.QI, nil)
			if !ok {
				narrow = false
				break
			}
			for _, ti := range cands {
				need[ti] = true
			}
		}
		if narrow {
			nCand := 0
			for _, n := range need {
				if n {
					nCand++
				}
			}
			msp := s.Trace.Start("store.materialize", parent)
			msp.SetAttr("candidates", int64(nCand))
			targets := make([]*sim.Exe, img.nExes)
			for ti, n := range need {
				if !n {
					continue
				}
				e, err := img.materialize(ti)
				if err != nil {
					msp.End()
					return nil, err
				}
				targets[ti] = e.exe
			}
			msp.End()
			s.Prefilter = cand
			res := core.SearchBatch(cqs, targets, s)
			out := make([]*SearchResult, len(res))
			for i := range res {
				out[i] = searchResultFromCore(res[i])
			}
			return out, nil
		}
	}
	if err := img.ensureAll(); err != nil {
		return nil, err
	}
	res := core.SearchBatch(cqs, img.targets, s)
	out := make([]*SearchResult, len(res))
	for i := range res {
		out[i] = searchResultFromCore(res[i])
	}
	return out, nil
}

// WriteShards splits the sealed corpus into n contiguous image ranges
// and writes each as one FWCORP v2 shard file (shard-NNNN.fwcorp) under
// dir, returning the paths in shard order. Every shard embeds the full
// frozen vocabulary plus its position, so OpenSealedCorpusDir can
// validate the set as one coherent corpus. n may exceed the image
// count; trailing shards are then empty but still valid.
//
// Shards are encoded and written by a bounded worker pool; each shard's
// bytes depend only on its own image range, so the output is identical
// to a sequential pass.
func (sc *SealedCorpus) WriteShards(dir string, n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("firmup: WriteShards: shard count %d must be at least 1", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	total := len(sc.images)
	type shardRange struct{ base, cnt int }
	ranges := make([]shardRange, n)
	for si, base := 0, 0; si < n; si++ {
		cnt := total / n
		if si < total%n {
			cnt++
		}
		ranges[si] = shardRange{base, cnt}
		base += cnt
	}
	paths := make([]string, n)
	errs := make([]error, n)
	workers := min(n, runtime.GOMAXPROCS(0))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for si := range ranges {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			paths[si], errs[si] = sc.writeShard(dir, si, n, ranges[si].base, ranges[si].cnt, total)
		}(si)
	}
	wg.Wait()
	// First error in shard order wins, matching the sequential contract.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// writeShard encodes and writes one shard's image range.
func (sc *SealedCorpus) writeShard(dir string, si, n, base, cnt, total int) (string, error) {
	c := &snapshot.Corpus{Interner: sc.frozen.Vocab()}
	for i := base; i < base+cnt; i++ {
		ci, err := sc.imageModel(i)
		if err != nil {
			return "", err
		}
		c.Images = append(c.Images, ci)
	}
	data, err := snapshot.EncodeCorpusShard(c, snapshot.ShardHeader{
		ShardIndex:  si,
		ShardCount:  n,
		ImageBase:   base,
		TotalImages: total,
	})
	if err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("shard-%04d.fwcorp", si))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return "", err
	}
	return p, nil
}

// imageModel reads image i back into the snapshot corpus model
// straight off its shard: executables and index rows alias the shard's
// slabs, and no session object is materialized.
func (sc *SealedCorpus) imageModel(i int) (snapshot.CorpusImage, error) {
	im := sc.images[i]
	ci := snapshot.CorpusImage{Vendor: im.Vendor, Device: im.Device, Version: im.Version}
	for _, s := range im.Skipped {
		ci.Skipped = append(ci.Skipped, snapshot.Skip{Path: s.Path, Err: s.Err.Error()})
	}
	ci.Exes = make([]snapshot.Exe, im.nExes)
	for k := range ci.Exes {
		e, err := im.store.shard.Exe(im.storeImg, k)
		if err != nil {
			return snapshot.CorpusImage{}, err
		}
		ci.Exes[k] = *e
	}
	slabs, err := im.store.shard.Index(im.storeImg)
	if err != nil {
		return snapshot.CorpusImage{}, err
	}
	if slabs != nil {
		ci.Index = slabs.Rows()
	}
	return ci, nil
}

// OpenSealedCorpus opens a sealed corpus from disk: a directory of v2
// shards (see OpenSealedCorpusDir), or the single shard file of a
// one-shard corpus. A file in any other container version fails with
// an error wrapping ErrSnapshotCorrupt that names the version and the
// file's path.
func OpenSealedCorpus(path string) (*SealedCorpus, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return OpenSealedCorpusDir(path)
	}
	shard, err := snapshot.OpenCorpusShardFile(path)
	if err != nil {
		return nil, err
	}
	if shard.Header().ShardCount != 1 {
		idx, cnt := shard.Header().ShardIndex, shard.Header().ShardCount
		shard.Close()
		return nil, fmt.Errorf("firmup: %s is shard %d of %d: open the shard directory instead", path, idx, cnt)
	}
	return sealedFromShards([]*snapshot.CorpusShard{shard}, []string{path})
}

// OpenSealedCorpusDir opens every *.fwcorp shard under dir as one
// sealed corpus, validating that the files form exactly one complete
// shard set (contiguous indexes, agreeing totals, byte-identical
// frozen vocabulary). A file that fails to open — including one in
// another container version — fails the whole set with an error naming
// its path.
func OpenSealedCorpusDir(dir string) (*SealedCorpus, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.fwcorp"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("firmup: %s holds no .fwcorp shards", dir)
	}
	sort.Strings(matches)
	shards := make([]*snapshot.CorpusShard, 0, len(matches))
	closeAll := func() {
		for _, s := range shards {
			s.Close()
		}
	}
	for _, p := range matches {
		s, err := snapshot.OpenCorpusShardFile(p)
		if err != nil {
			closeAll()
			return nil, err
		}
		shards = append(shards, s)
	}
	sc, err := sealedFromShards(shards, matches)
	if err != nil {
		closeAll()
		return nil, err
	}
	return sc, nil
}

// sealedFromShards assembles an open sealed corpus from already-open
// shards (with their paths aligned by index). On error the caller owns
// closing the shards.
func sealedFromShards(shards []*snapshot.CorpusShard, paths []string) (*SealedCorpus, error) {
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return shards[order[a]].Header().ShardIndex < shards[order[b]].Header().ShardIndex
	})

	want := shards[order[0]].Header()
	if want.ShardCount != len(shards) {
		return nil, fmt.Errorf("firmup: corpus declares %d shards but %d shard files are present", want.ShardCount, len(shards))
	}
	crc0, len0 := shards[order[0]].VocabChecksum()
	base := 0
	for pos, oi := range order {
		h := shards[oi].Header()
		if h.ShardIndex != pos {
			return nil, fmt.Errorf("firmup: shard set is not contiguous: missing shard %d (found %d in %s)", pos, h.ShardIndex, paths[oi])
		}
		if h.ShardCount != want.ShardCount || h.TotalImages != want.TotalImages {
			return nil, fmt.Errorf("firmup: %s declares %d shards / %d images, shard 0 declares %d / %d: mixed corpora", paths[oi], h.ShardCount, h.TotalImages, want.ShardCount, want.TotalImages)
		}
		if crc, l := shards[oi].VocabChecksum(); crc != crc0 || l != len0 {
			return nil, fmt.Errorf("firmup: %s vocabulary differs from shard 0: shards of different corpora", paths[oi])
		}
		if h.ImageBase != base {
			return nil, fmt.Errorf("firmup: %s starts at image %d, previous shards end at %d", paths[oi], h.ImageBase, base)
		}
		base += shards[oi].NumImages()
	}
	if base != want.TotalImages {
		return nil, fmt.Errorf("firmup: shards hold %d images, corpus declares %d", base, want.TotalImages)
	}

	// The frozen vocabulary comes straight off shard 0's mapped slabs:
	// no map build, no clone. FrozenFromSlabs validates the sorted slab
	// against the vocabulary, which also CRC-touches both sections.
	vocab, err := shards[order[0]].Vocab()
	if err != nil {
		return nil, err
	}
	sortedH, sortedI, err := shards[order[0]].SortedVocab()
	if err != nil {
		return nil, err
	}
	frozen, err := corpusindex.FrozenFromSlabs(vocab, sortedH, sortedI)
	if err != nil {
		return nil, err
	}

	sc := &SealedCorpus{frozen: frozen}
	imgBase := 0
	for _, oi := range order {
		shard := shards[oi]
		store := &sealedStore{shard: shard, frozen: frozen}
		n := shard.NumImages()
		for li := 0; li < n; li++ {
			info := shard.Image(li)
			si := &SealedImage{
				Vendor:   info.Vendor,
				Device:   info.Device,
				Version:  info.Version,
				store:    store,
				storeImg: li,
				nExes:    info.Executables,
				lazy:     make([]lazyExe, info.Executables),
			}
			for _, s := range info.Skipped {
				si.Skipped = append(si.Skipped, SkipReason{Path: s.Path, Err: errors.New(s.Err)})
			}
			sc.images = append(sc.images, si)
		}
		sc.shards = append(sc.shards, &sealedShardRef{store: store, path: paths[oi], base: imgBase, n: n})
		imgBase += n
	}
	return sc, nil
}
