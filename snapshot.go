package firmup

import (
	"errors"
	"fmt"
	"sort"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// ErrSnapshotCorrupt reports that a snapshot failed to decode; it is
// firmup's re-export of snapshot.ErrCorrupt so callers can classify
// LoadImage failures without importing the internal package.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// SaveImage serializes an analyzed image into the versioned,
// checksummed snapshot format, so a later session can re-attach it with
// LoadImage instead of re-running the analysis pipeline. The image must
// have been analyzed under this session: the snapshot embeds the
// session's strand vocabulary (dense ID → hash) that the image's
// per-procedure ID sets and inverted index are expressed in.
func (a *Analyzer) SaveImage(img *Image) ([]byte, error) {
	var saveSpan telemetry.Span
	if a.met != nil {
		saveSpan = a.met.snapSave.Start()
	}
	ci, err := a.imageModel(img)
	if err != nil {
		return nil, fmt.Errorf("firmup: SaveImage: %w", err)
	}
	blob, err := snapshot.Encode(&snapshot.Image{
		Vendor:   ci.Vendor,
		Device:   ci.Device,
		Version:  ci.Version,
		Skipped:  ci.Skipped,
		Interner: a.interner.Hashes(),
		Exes:     ci.Exes,
		Index:    ci.Index,
	})
	if a.met != nil && err == nil {
		a.met.snapSaveBytes.Add(int64(len(blob)))
		saveSpan.End()
	}
	return blob, err
}

// imageModel converts an image analyzed under this session into the
// snapshot model — the shared form of SaveImage and Seal. Strand sets
// and index rows are expressed in the session's dense-ID space.
func (a *Analyzer) imageModel(img *Image) (snapshot.CorpusImage, error) {
	ci := snapshot.CorpusImage{Vendor: img.Vendor, Device: img.Device, Version: img.Version}
	for _, s := range img.Skipped {
		ci.Skipped = append(ci.Skipped, snapshot.Skip{Path: s.Path, Err: s.Err.Error()})
	}
	for _, e := range img.Exes {
		if e.exe.Session() != strand.Interner(a.interner) {
			return snapshot.CorpusImage{}, fmt.Errorf("executable %s was not analyzed under this session", e.Path)
		}
		ci.Exes = append(ci.Exes, exeToModel(e.Path, e.exe))
	}
	if img.index != nil {
		rows := img.index.Rows()
		ci.Index = make([]snapshot.IndexRow, len(rows))
		for i, r := range rows {
			ci.Index[i] = snapshot.IndexRow{ID: r.ID, Posts: postsToModel(r.Posts)}
		}
	}
	return ci, nil
}

// exeToModel serializes one session executable into the snapshot model.
func exeToModel(path string, e *sim.Exe) snapshot.Exe {
	se := snapshot.Exe{Path: path, Arch: uint8(e.Arch), Stripped: e.Stripped}
	for _, p := range e.Procs {
		sp := snapshot.Proc{
			Name:       p.Name,
			Addr:       p.Addr,
			Exported:   p.Exported,
			IDs:        p.Set.IDs,
			Markers:    p.Markers,
			BlockCount: p.BlockCount,
			EdgeCount:  p.EdgeCount,
			InstCount:  p.InstCount,
		}
		for _, c := range p.Calls {
			sp.Calls = append(sp.Calls, int32(c))
		}
		se.Procs = append(se.Procs, sp)
	}
	return se
}

func postsToModel(ps []corpusindex.Posting) []snapshot.Posting {
	out := make([]snapshot.Posting, len(ps))
	for i, p := range ps {
		out[i] = snapshot.Posting{Exe: p.Exe, Proc: p.Proc}
	}
	return out
}

// LoadImage re-attaches a snapshot produced by SaveImage to this
// session, skipping the unpack → recover → lift → strand pipeline. The
// saved vocabulary is re-interned into the session: when the session's
// ID space already agrees (e.g. a fresh session), the saved dense-ID
// sets and inverted index load verbatim; otherwise every set is
// remapped to the session's IDs and the index is rebuilt, so the
// prefilter soundness invariant (indexed and exhaustive searches return
// identical findings) holds either way. Unreadable input fails with an
// error wrapping ErrSnapshotCorrupt; see OpenImageWithSnapshot for the
// fall-back-to-analysis path.
func (a *Analyzer) LoadImage(data []byte) (*Image, error) {
	var loadSpan telemetry.Span
	if a.met != nil {
		loadSpan = a.met.snapLoad.Start()
	}
	m, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	// Re-intern the saved vocabulary. remap[oldID] is this session's
	// dense ID for the same 64-bit hash; on a session whose ID space
	// agrees (identity) the saved sets and index are valid verbatim.
	remap := make([]uint32, len(m.Interner))
	identity := true
	for i, h := range m.Interner {
		id := a.interner.Intern(h)
		remap[i] = id
		if id != uint32(i) {
			identity = false
		}
	}
	out := &Image{Vendor: m.Vendor, Device: m.Device, Version: m.Version}
	for _, s := range m.Skipped {
		out.Skipped = append(out.Skipped, SkipReason{Path: s.Path, Err: errors.New(s.Err)})
	}
	exes := make([]*sim.Exe, 0, len(m.Exes))
	for _, se := range m.Exes {
		procs := make([]*sim.Proc, len(se.Procs))
		for pi := range se.Procs {
			procs[pi] = loadProc(&se.Procs[pi], m.Interner, remap, identity, a.interner)
		}
		for i, p := range procs {
			for _, c := range p.Calls {
				procs[c].CalledBy = append(procs[c].CalledBy, i)
			}
		}
		e := sim.FromProcsSession(se.Path, procs, a.interner)
		e.Arch = uir.Arch(se.Arch)
		e.Stripped = se.Stripped
		exes = append(exes, e)
		out.Exes = append(out.Exes, &Executable{Path: se.Path, exe: e})
	}
	if a.opt.indexed() {
		if identity && m.Index != nil {
			rows := make([]corpusindex.Row, len(m.Index))
			for i, r := range m.Index {
				rows[i] = corpusindex.Row{ID: r.ID, Posts: postsFromModel(r.Posts)}
			}
			out.index = corpusindex.RestoreIndex(a.interner, exes, rows)
		} else {
			out.index = corpusindex.NewIndex(a.interner)
			for _, e := range exes {
				out.index.Add(e)
			}
		}
		out.index.SetTelemetry(a.idxTel())
	}
	if a.met != nil {
		a.met.snapLoadBytes.Add(int64(len(data)))
		loadSpan.End()
	}
	return out, nil
}

func postsFromModel(ps []snapshot.Posting) []corpusindex.Posting {
	out := make([]corpusindex.Posting, len(ps))
	for i, p := range ps {
		out[i] = corpusindex.Posting{Exe: p.Exe, Proc: p.Proc}
	}
	return out
}

// loadProc rebuilds one procedure from its serialized form: hashes are
// recovered through the saved vocabulary and dense IDs are remapped
// into the loading session's ID space.
func loadProc(sp *snapshot.Proc, vocab []uint64, remap []uint32, identity bool, it *corpusindex.Interner) *sim.Proc {
	var ids []uint32
	hashes := make([]uint64, len(sp.IDs))
	if identity {
		ids = append([]uint32(nil), sp.IDs...)
	} else {
		ids = make([]uint32, len(sp.IDs))
	}
	for k, oid := range sp.IDs {
		hashes[k] = vocab[oid]
		if !identity {
			ids[k] = remap[oid]
		}
	}
	// Set invariants: Hashes and IDs are each sorted ascending. The
	// saved IDs are strictly increasing, but neither the recovered
	// hashes nor the remapped IDs inherit that order.
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	if !identity {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	p := &sim.Proc{
		Name:       sp.Name,
		Addr:       sp.Addr,
		Exported:   sp.Exported,
		Set:        strand.Set{Hashes: hashes, IDs: ids, It: it},
		Markers:    sp.Markers,
		BlockCount: sp.BlockCount,
		EdgeCount:  sp.EdgeCount,
		InstCount:  sp.InstCount,
	}
	for _, c := range sp.Calls {
		p.Calls = append(p.Calls, int(c))
	}
	return p
}

// SnapshotSkipPath is the SkipReason.Path under which
// OpenImageWithSnapshot surfaces a snapshot that failed to load before
// falling back to full analysis.
const SnapshotSkipPath = "snapshot"

// OpenImageWithSnapshot opens an image, preferring its analysis
// snapshot: when snap decodes cleanly the pipeline is skipped entirely
// and the image is served from the snapshot; when snap is nil or
// unreadable (truncated, bit-flipped, version-skewed — anything
// wrapping ErrSnapshotCorrupt), the raw image bytes are re-analyzed in
// full and the snapshot failure is surfaced as a SkipReason with path
// SnapshotSkipPath rather than silently ignored.
func (a *Analyzer) OpenImageWithSnapshot(imageData, snap []byte) (*Image, error) {
	if snap != nil {
		img, err := a.LoadImage(snap)
		if err == nil {
			return img, nil
		}
		full, ferr := a.OpenImage(imageData)
		if full != nil {
			full.Skipped = append([]SkipReason{{Path: SnapshotSkipPath, Err: err}}, full.Skipped...)
		}
		return full, ferr
	}
	return a.OpenImage(imageData)
}

// SaveImage serializes an image analyzed under the package's default
// session (see Analyzer.SaveImage).
func SaveImage(img *Image) ([]byte, error) {
	return defaultAnalyzer().SaveImage(img)
}

// LoadImage re-attaches a snapshot under the package's default session
// (see Analyzer.LoadImage).
func LoadImage(data []byte) (*Image, error) {
	return defaultAnalyzer().LoadImage(data)
}

// OpenImageWithSnapshot opens an image under the package's default
// session, preferring its snapshot (see Analyzer.OpenImageWithSnapshot).
func OpenImageWithSnapshot(imageData, snap []byte) (*Image, error) {
	return defaultAnalyzer().OpenImageWithSnapshot(imageData, snap)
}
