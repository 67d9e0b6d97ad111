package firmup_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/snapshot"
	"firmup/internal/uir"
)

// TestShardedCorpusEquivalence is the sharding soundness test: a
// sealed corpus split into any number of v2 shards and reopened
// mmap-backed must answer every search byte-identically to the
// in-memory corpus Seal returned — findings, examined counts and step
// histograms, across sequential, batched and exhaustive paths, and
// under concurrent readers (exercised with -race in CI).
func TestShardedCorpusEquivalence(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	cve2 := corpus.CVEByID("CVE-2013-1944")
	qb2 := queryBytesFor(t, cve2, uir.ArchARM32)

	baseQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	baseQ2, err := s.sealed.AnalyzeQuery(qb2)
	if err != nil {
		t.Fatal(err)
	}
	opts := []*firmup.Options{nil, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	type baseline struct {
		all   []firmup.ImageFindings
		batch [][]firmup.ImageFindings
	}
	var want []baseline
	total := 0
	for _, opt := range opts {
		all, err := s.sealed.SearchAll(baseQ, cve.Procedure, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.sealed.SearchAllBatch([]firmup.BatchQuery{
			{Query: baseQ, Procedure: cve.Procedure},
			{Query: baseQ2, Procedure: cve2.Procedure},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, baseline{all: all, batch: batch})
		for _, im := range all {
			total += len(im.Findings)
		}
	}
	if total == 0 {
		t.Fatal("no findings in the unsharded baseline; equivalence would be vacuous")
	}

	for _, nShards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			dir := t.TempDir()
			paths, err := s.sealed.WriteShards(dir, nShards)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != nShards {
				t.Fatalf("WriteShards returned %d paths, want %d", len(paths), nShards)
			}
			sc, err := firmup.OpenSealedCorpusDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			if got := len(sc.Shards()); got != nShards {
				t.Errorf("Shards() reports %d shards, want %d", got, nShards)
			}
			if sc.Executables() != s.sealed.Executables() || sc.UniqueStrands() != s.sealed.UniqueStrands() {
				t.Errorf("corpus shape diverges: %d/%d executables, %d/%d strands",
					sc.Executables(), s.sealed.Executables(), sc.UniqueStrands(), s.sealed.UniqueStrands())
			}

			q, err := sc.AnalyzeQuery(qb)
			if err != nil {
				t.Fatal(err)
			}
			q2, err := sc.AnalyzeQuery(qb2)
			if err != nil {
				t.Fatal(err)
			}
			for oi, opt := range opts {
				all, err := sc.SearchAll(q, cve.Procedure, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(all, want[oi].all) {
					t.Errorf("opt[%d]: SearchAll diverges from unsharded corpus", oi)
				}
				batch, err := sc.SearchAllBatch([]firmup.BatchQuery{
					{Query: q, Procedure: cve.Procedure},
					{Query: q2, Procedure: cve2.Procedure},
				}, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch, want[oi].batch) {
					t.Errorf("opt[%d]: SearchAllBatch diverges from unsharded corpus", oi)
				}
				// Per-image detailed results pin the step histograms too.
				for i, img := range sc.Images() {
					res, err := sc.SearchImageDetailed(q, cve.Procedure, img, opt)
					if err != nil {
						t.Fatal(err)
					}
					baseRes, err := s.sealed.SearchImageDetailed(baseQ, cve.Procedure, s.sealed.Images()[i], opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, baseRes) {
						t.Errorf("opt[%d] image %d: detailed result diverges:\nsharded:   %+v\nunsharded: %+v",
							oi, i, res, baseRes)
					}
				}
			}

			// Concurrent readers race lazy materialization and the
			// first-touch CRC passes; every reader must still see the
			// baseline result exactly.
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					opt := opts[r%len(opts)]
					all, err := sc.SearchAll(q, cve.Procedure, opt)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(all, want[r%len(opts)].all) {
						errs <- fmt.Errorf("reader %d: concurrent SearchAll diverges", r)
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// liveEquivQueries are the CVE probes TestShardedLiveEquivalence
// replays.
var liveEquivQueries = []struct {
	cveID string
	arch  uir.Arch
}{
	{"CVE-2014-4877", uir.ArchMIPS32},
	{"CVE-2013-1944", uir.ArchARM32},
}

// TestShardedLiveEquivalence pins every sealed corpus form — the
// in-memory corpus Seal returns and shard sets written at two shard
// counts and reopened from disk — directly to the live session
// baseline: findings, examined counts and step histograms deep-equal,
// per image, across option variants including the exhaustive path.
// Randomized over corpus seeds; CI runs it under -race.
func TestShardedLiveEquivalence(t *testing.T) {
	opts := []*firmup.Options{nil, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: seed})

			dir := t.TempDir()
			type form struct {
				name string
				sc   *firmup.SealedCorpus
			}
			forms := []form{{"sealed", s.sealed}}
			for _, nShards := range []int{2, 7} {
				d := filepath.Join(dir, fmt.Sprintf("shards-%d", nShards))
				if _, err := s.sealed.WriteShards(d, nShards); err != nil {
					t.Fatal(err)
				}
				sc, err := firmup.OpenSealedCorpusDir(d)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				forms = append(forms, form{fmt.Sprintf("shards-%d", nShards), sc})
			}

			total := 0
			for _, q := range liveEquivQueries {
				cve := corpus.CVEByID(q.cveID)
				if cve == nil {
					t.Fatalf("unknown CVE %s", q.cveID)
				}
				qb := queryBytesFor(t, cve, q.arch)
				liveQ, err := s.analyzer.LoadQueryExecutable(qb)
				if err != nil {
					t.Fatal(err)
				}
				for oi, opt := range opts {
					var want []*firmup.SearchResult
					for _, img := range s.live {
						res, err := s.analyzer.SearchImageDetailed(liveQ, cve.Procedure, img, opt)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, res)
						total += len(res.Findings)
					}
					for _, f := range forms {
						fq, err := f.sc.AnalyzeQuery(qb)
						if err != nil {
							t.Fatal(err)
						}
						for i, img := range f.sc.Images() {
							got, err := f.sc.SearchImageDetailed(fq, cve.Procedure, img, opt)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want[i]) {
								t.Errorf("%s %s opt[%d] image %d: diverges from live baseline:\nlive: %+v\ngot:  %+v",
									f.name, cve.ID, oi, i, want[i], got)
							}
						}
					}
				}
			}
			if total == 0 {
				t.Error("no findings under any options; equivalence vacuous")
			}
		})
	}
}

// TestOpenSealedCorpusForms pins the OpenSealedCorpus dispatch: a
// single-shard file and a shard directory open into equivalent
// corpora, and a multi-shard member opened as a lone file is rejected
// with a pointer to the directory form.
func TestOpenSealedCorpusForms(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	baseQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.sealed.SearchAll(baseQ, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	oneDir := filepath.Join(dir, "one")
	onePaths, err := s.sealed.WriteShards(oneDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	manyDir := filepath.Join(dir, "many")
	manyPaths, err := s.sealed.WriteShards(manyDir, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
	}{
		{"v2-single-file", onePaths[0]},
		{"v2-dir", manyDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := firmup.OpenSealedCorpus(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			q, err := sc.AnalyzeQuery(qb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.SearchAll(q, cve.Procedure, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("opened corpus answers differently from the sealed original")
			}
		})
	}

	if _, err := firmup.OpenSealedCorpus(manyPaths[1]); err == nil {
		t.Error("opening one shard of a 3-shard corpus as a file succeeded; want an error directing to the directory")
	}

	// A shard set with a member missing must be rejected at open.
	if err := os.Remove(manyPaths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := firmup.OpenSealedCorpusDir(manyDir); err == nil {
		t.Error("opening an incomplete shard set succeeded")
	}
}

// TestOpenSealedCorpusRejectsOtherVersions pins the one-format
// contract: a .fwcorp file declaring any container version but 2 — the
// retired monolithic v1 artifact, the retired v3 signature layout, or
// an unknown future version — fails to open with an error wrapping
// ErrSnapshotCorrupt that names the version and the offending path,
// both as a lone file and as a member of a shard directory.
func TestOpenSealedCorpusRejectsOtherVersions(t *testing.T) {
	for _, version := range []uint32{1, 3, 99} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			// magic | version | section count, then zeroed table entries.
			hdr := append([]byte("FWCORP\r\n"), binary.LittleEndian.AppendUint32(nil, version)...)
			hdr = binary.LittleEndian.AppendUint32(hdr, 3)
			hdr = append(hdr, make([]byte, 3*24)...)
			dir := t.TempDir()
			path := filepath.Join(dir, "corpus.fwcorp")
			if err := os.WriteFile(path, hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			wantVersion := fmt.Sprintf("version %d", version)
			_, err := firmup.OpenSealedCorpus(path)
			if !errors.Is(err, firmup.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), wantVersion) || !strings.Contains(err.Error(), path) {
				t.Errorf("OpenSealedCorpus(file) = %v; want ErrSnapshotCorrupt naming %q and %s", err, wantVersion, path)
			}
			_, err = firmup.OpenSealedCorpusDir(dir)
			if !errors.Is(err, firmup.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), wantVersion) || !strings.Contains(err.Error(), path) {
				t.Errorf("OpenSealedCorpusDir = %v; want ErrSnapshotCorrupt naming %q and %s", err, wantVersion, path)
			}
		})
	}
}

// TestOpenSealedCorpusDirMixed pins the directory opener against a
// stray container of another version among the shards: a complete v2
// shard set plus one file relabelled as the retired monolithic v1 form
// fails to open, and the error wraps ErrSnapshotCorrupt and names the
// stray file and its version.
func TestOpenSealedCorpusDirMixed(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 1, MaxReleases: 1, Seed: 5})
	dir := t.TempDir()
	paths, err := s.sealed.WriteShards(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[8:], 1)
	stray := filepath.Join(dir, "old-corpus.fwcorp")
	if err := os.WriteFile(stray, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = firmup.OpenSealedCorpusDir(dir)
	if err == nil {
		t.Fatal("opening a directory with a stray v1 file succeeded")
	}
	if !errors.Is(err, firmup.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), stray) {
		t.Errorf("OpenSealedCorpusDir = %v; want ErrSnapshotCorrupt naming version 1 and %s", err, stray)
	}
}

// TestWriteShardsDeterminism pins the parallel shard writer: repeated
// runs are byte-identical (the worker pool cannot leak scheduling order
// into the artifacts), and every shard is a version 2 container.
func TestWriteShardsDeterminism(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 1, Seed: 7})
	dir := t.TempDir()
	runA, err := s.sealed.WriteShards(filepath.Join(dir, "a"), 5)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := s.sealed.WriteShards(filepath.Join(dir, "b"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(runA) != 5 || len(runB) != 5 {
		t.Fatalf("WriteShards returned %d/%d paths, want 5", len(runA), len(runB))
	}
	for i := range runA {
		a, err := os.ReadFile(runA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(runB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shard %d differs between two WriteShards runs", i)
		}
		if v := binary.LittleEndian.Uint32(a[8:]); v != snapshot.CorpusFormatVersionV2 {
			t.Errorf("shard %d: version %d, want v%d", i, v, snapshot.CorpusFormatVersionV2)
		}
	}
}
