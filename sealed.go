package firmup

import (
	"fmt"
	"runtime"
	"sync"

	"firmup/internal/cfg"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/telemetry"
)

// SealedCorpus is the immutable, serve-oriented form of an analysis
// session: a frozen strand vocabulary plus every sealed image's
// executables and inverted index, held in FWCORP v2 shards — mapped
// from disk (OpenSealedCorpus), or one in-memory shard (Seal). The
// query path — AnalyzeQuery through SearchImage — performs no writes to
// the corpus: query executables are analyzed under per-request overlay
// interners whose private IDs sit above the frozen vocabulary, so their
// sets remain directly comparable with sealed sets while the corpus
// itself is shared, lock-free, by unlimited concurrent readers.
//
// A sealed corpus answers searches identically to the live session it
// was sealed from: same candidate ranking, same acceptance floors, same
// game — byte-identical findings, examined counts and step histograms.
type SealedCorpus struct {
	frozen *corpusindex.Frozen
	images []*SealedImage

	// shards drives the per-shard fan-out of corpus-wide searches and
	// Close.
	shards []*sealedShardRef
}

// SealedImage is one firmware image of a sealed corpus.
//
// Exes stays nil until a search needs every executable: individual
// executables materialize from the shard on demand, so access Exes only
// through Executable / search APIs, which fault them in as needed.
type SealedImage struct {
	Vendor  string
	Device  string
	Version string
	Exes    []*Executable
	// Skipped carries the analysis-time skip diagnostics verbatim.
	Skipped []SkipReason

	index   *corpusindex.FrozenIndex
	targets []*sim.Exe

	// tel, when non-nil, is applied to the image's frozen index at its
	// first build (see SealedCorpus.SetTelemetry).
	tel *corpusindex.Telemetry

	store    *sealedStore
	storeImg int // image index within the shard
	nExes    int
	lazy     []lazyExe
	idxOnce  sync.Once
	idxErr   error
	allOnce  sync.Once
	allErr   error
}

// Executable returns the sealed executable with the given in-image
// path, or nil. This materializes the whole image; nil is also returned
// if the shard fails to decode.
func (im *SealedImage) Executable(path string) *Executable {
	if err := im.ensureAll(); err != nil {
		return nil
	}
	for _, e := range im.Exes {
		if e.Path == path {
			return e
		}
	}
	return nil
}

// IndexedStrands reports the number of postings in the image's sealed
// search index, or 0 when the image was sealed without one (or its
// shard index fails to decode).
func (im *SealedImage) IndexedStrands() int {
	if err := im.ensureIndex(); err != nil {
		return 0
	}
	if im.index == nil {
		return 0
	}
	return im.index.Postings()
}

// Seal freezes the session's current state into an immutable corpus
// over the given images: the session vocabulary and the images'
// executables and indexes are encoded as the single shard of a
// one-shard FWCORP v2 corpus, held in memory. The sealed corpus thus
// searches exactly like one written with WriteShards and reopened, and
// it aliases no session state: the live Analyzer and its images stay
// fully usable afterwards.
//
// Every image must have been analyzed (or loaded) under this session;
// an executable from another session has incomparable dense IDs and is
// rejected.
func (a *Analyzer) Seal(images ...*Image) (*SealedCorpus, error) {
	c := &snapshot.Corpus{Interner: a.interner.Hashes()}
	for ii, img := range images {
		ci, err := a.imageModel(img)
		if err != nil {
			return nil, fmt.Errorf("firmup: Seal: image %d: %w", ii, err)
		}
		c.Images = append(c.Images, ci)
	}
	data, err := snapshot.EncodeCorpusShard(c, snapshot.ShardHeader{ShardCount: 1, TotalImages: len(c.Images)})
	if err != nil {
		return nil, fmt.Errorf("firmup: Seal: %w", err)
	}
	shard, err := snapshot.OpenCorpusShardBytes(data)
	if err != nil {
		return nil, err
	}
	return sealedFromShards([]*snapshot.CorpusShard{shard}, []string{""})
}

// Images returns the sealed images in seal order. The slice is shared;
// treat it as read-only.
func (sc *SealedCorpus) Images() []*SealedImage { return sc.images }

// UniqueStrands reports the frozen vocabulary size.
func (sc *SealedCorpus) UniqueStrands() int { return sc.frozen.Size() }

// SetTelemetry attaches prefilter telemetry (index.queries /
// index.fallbacks / index.fanout) to every image index of the corpus.
// Call before serving searches — an image applies the handles when its
// index first builds, or immediately if already built. A nil registry
// detaches.
func (sc *SealedCorpus) SetTelemetry(r *telemetry.Registry) {
	var tel *corpusindex.Telemetry
	if r != nil {
		tel = &corpusindex.Telemetry{
			Queries:   r.Counter("index.queries"),
			Fallbacks: r.Counter("index.fallbacks"),
			Fanout:    r.Histogram("index.fanout"),
		}
	}
	for _, im := range sc.images {
		im.tel = tel
		if im.index != nil {
			im.index.SetTelemetry(tel)
		}
	}
}

// Executables reports the total executable count across all images.
// Cheap: counts come from shard metadata, not materialization.
func (sc *SealedCorpus) Executables() int {
	n := 0
	for _, im := range sc.images {
		n += im.nExes
	}
	return n
}

// AnalyzeQuery analyzes a query binary against the sealed corpus under
// a fresh per-request overlay interner (see AnalyzeQueryWith).
func (sc *SealedCorpus) AnalyzeQuery(data []byte) (*Executable, error) {
	return sc.AnalyzeQueryWith("query", data, 0)
}

// AnalyzeQueryWith analyzes one FWELF binary for querying this sealed
// corpus, with a bounded procedure-level worker budget (≤ 0 selects
// GOMAXPROCS). The analysis runs under a request-private overlay of the
// frozen vocabulary: strands the corpus knows resolve to their frozen
// IDs, novel strands get private IDs above the vocabulary, and nothing
// in the corpus is written. The returned executable queries this corpus
// on the interned fast paths; against any other corpus it falls back to
// hash-based comparison (still correct, just slower).
func (sc *SealedCorpus) AnalyzeQueryWith(path string, data []byte, workers int) (*Executable, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f, err := obj.Read(data)
	if err != nil {
		return nil, err
	}
	rec, err := cfg.Recover(f)
	if err != nil {
		return nil, fmt.Errorf("firmup: %s: %w", path, err)
	}
	qit := corpusindex.NewQueryInterner(sc.frozen)
	bc := &sim.BuildConfig{Workers: workers}
	return &Executable{Path: path, exe: sim.BuildWith(path, rec, qit, bc)}, nil
}

// SearchImageDetailed looks for the query executable's procedure in
// every executable of one sealed image, with the search accounting
// exposed. The result is identical to the live Analyzer's
// SearchImageDetailed over the image this one was sealed from.
func (sc *SealedCorpus) SearchImageDetailed(query *Executable, procedure string, img *SealedImage, opt *Options) (*SearchResult, error) {
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	return sc.storeSearch(query, qi, img, opt, opt.traceSpan())
}

// SearchBatch looks for every batch query in one sealed image in a
// single batched game-engine pass (see Analyzer.SearchBatch). Results
// align with queries and are byte-identical to per-query
// SearchImageDetailed calls against this sealed image — and therefore
// to the live session the image was sealed from.
func (sc *SealedCorpus) SearchBatch(queries []BatchQuery, img *SealedImage, opt *Options) ([]*SearchResult, error) {
	cqs, err := coreBatch(queries)
	if err != nil {
		return nil, err
	}
	return sc.storeSearchBatch(cqs, img, opt, opt.traceSpan())
}

// SearchImage looks for the query executable's procedure in every
// executable of one sealed image.
func (sc *SealedCorpus) SearchImage(query *Executable, procedure string, img *SealedImage, opt *Options) ([]Finding, error) {
	res, err := sc.SearchImageDetailed(query, procedure, img, opt)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// ImageFindings is one sealed image's outcome of a corpus-wide search.
type ImageFindings struct {
	Vendor   string    `json:"vendor"`
	Device   string    `json:"device"`
	Version  string    `json:"version"`
	Findings []Finding `json:"findings"`
	Examined int       `json:"examined"`
}

// SearchAll runs the query against every image of the corpus in seal
// order. On a sharded corpus the shards are searched in parallel; the
// merged result is index-for-index identical to the sequential pass —
// per-image searches share no mutable state, so fan-out order cannot
// influence findings, examined counts or step histograms.
func (sc *SealedCorpus) SearchAll(query *Executable, procedure string, opt *Options) ([]ImageFindings, error) {
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	out := make([]ImageFindings, len(sc.images))
	err := sc.fanOut(opt.trace(), opt.traceSpan(), func(i int, parent telemetry.SpanID) error {
		img := sc.images[i]
		res, err := sc.storeSearch(query, qi, img, opt, parent)
		if err != nil {
			return err
		}
		out[i] = ImageFindings{
			Vendor:   img.Vendor,
			Device:   img.Device,
			Version:  img.Version,
			Findings: res.Findings,
			Examined: res.Examined,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut fills per-image results for every image of the corpus: one
// sequential pass when the corpus is a single shard, one goroutine per
// shard otherwise, merged by global image index. The first error in
// shard order wins. When the corpus is sharded and a trace is attached,
// each shard's pass runs under its own "corpus.shard" span (shard index
// + image count attributes), so a slow request attributes its latency
// to the shard that caused it; fill receives the span it should parent
// its own spans under.
func (sc *SealedCorpus) fanOut(tr *telemetry.Trace, parent telemetry.SpanID, fill func(i int, parent telemetry.SpanID) error) error {
	if len(sc.shards) == 1 {
		for i := range sc.images {
			if err := fill(i, parent); err != nil {
				return err
			}
		}
		return nil
	}
	workers := min(len(sc.shards), runtime.GOMAXPROCS(0))
	sem := make(chan struct{}, workers)
	errs := make([]error, len(sc.shards))
	var wg sync.WaitGroup
	for ri, ref := range sc.shards {
		wg.Add(1)
		go func(ri int, ref *sealedShardRef) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shardParent := parent
			if tr != nil {
				sp := tr.Start("corpus.shard", parent)
				sp.SetAttr("shard", int64(ri))
				sp.SetAttr("images", int64(ref.n))
				defer sp.End()
				shardParent = sp.ID()
			}
			for i := ref.base; i < ref.base+ref.n; i++ {
				if err := fill(i, shardParent); err != nil {
					errs[ri] = err
					return
				}
			}
		}(ri, ref)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SearchAllBatch runs every batch query against every image of the
// corpus in seal order, one batched game-engine pass per image. The
// outer result dimension aligns with queries, the inner with Images();
// each entry is byte-identical to the corresponding sequential
// SearchAll call. This is the serve path's coalesced form: concurrent
// requests against one corpus share each image's target pass instead of
// replaying it per request.
func (sc *SealedCorpus) SearchAllBatch(queries []BatchQuery, opt *Options) ([][]ImageFindings, error) {
	cqs, err := coreBatch(queries)
	if err != nil {
		return nil, err
	}
	out := make([][]ImageFindings, len(queries))
	for qx := range queries {
		out[qx] = make([]ImageFindings, len(sc.images))
	}
	err = sc.fanOut(opt.trace(), opt.traceSpan(), func(i int, parent telemetry.SpanID) error {
		img := sc.images[i]
		res, err := sc.storeSearchBatch(cqs, img, opt, parent)
		if err != nil {
			return err
		}
		for qx, r := range res {
			out[qx][i] = ImageFindings{
				Vendor:   img.Vendor,
				Device:   img.Device,
				Version:  img.Version,
				Findings: r.Findings,
				Examined: r.Examined,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatchProcedure runs the back-and-forth game for one query procedure
// against a single sealed executable.
func (sc *SealedCorpus) MatchProcedure(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, int, error) {
	f, r, err := matchTracedCore(nil, query, procedure, target, opt, false)
	if err != nil {
		return nil, 0, err
	}
	return f, r.Steps, nil
}

// MatchProcedureTraced is MatchProcedure with the full game course
// recorded, for sealed targets. Traces are identical to the live
// session's for the same query/target pair.
func (sc *SealedCorpus) MatchProcedureTraced(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, *GameTrace, error) {
	f, r, err := matchTracedCore(nil, query, procedure, target, opt, true)
	if err != nil {
		return nil, nil, err
	}
	return f, traceFromResult(r), nil
}
