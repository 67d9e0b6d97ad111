package firmup_test

import (
	"sync"
	"testing"

	"firmup"
	"firmup/internal/cfg"
	"firmup/internal/corpus"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// fuzzCorpus is the tiny sealed corpus FuzzAnalyzeQuery analyzes
// uploads against, built once per process.
var fuzzCorpus struct {
	once sync.Once
	sc   *firmup.SealedCorpus
	err  error
}

func fuzzSealedCorpus(tb testing.TB) *firmup.SealedCorpus {
	tb.Helper()
	fuzzCorpus.once.Do(func() {
		a := firmup.NewAnalyzer(nil)
		var imgs []*firmup.Image
		err := corpus.Stream(corpus.ScaleForImages(1), func(bi *corpus.BuiltImage) error {
			img, err := a.OpenImage(bi.Image.Pack(true))
			if err != nil {
				return err
			}
			imgs = append(imgs, img)
			return corpus.ErrStop
		})
		if err != nil {
			fuzzCorpus.err = err
			return
		}
		fuzzCorpus.sc, fuzzCorpus.err = a.Seal(imgs...)
	})
	if fuzzCorpus.err != nil {
		tb.Fatal(fuzzCorpus.err)
	}
	return fuzzCorpus.sc
}

// FuzzAnalyzeQuery feeds arbitrary bytes to the sealed query path that
// firmupd runs on every upload: parse, CFG recovery, lifting, and strand
// canonicalization under a per-request overlay interner. The contract:
// no panic; every block the lifter produces is valid UIR (SSA, no use
// of an undefined temp); AnalyzeQueryWith fails exactly when parsing
// or recovery does; and every procedure's strand hashes and markers
// come back sorted and unique. Seeds are the 36 CVE query executables.
func FuzzAnalyzeQuery(f *testing.F) {
	for _, cve := range corpus.CVEs {
		for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
			_, qf, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(qf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzSealedCorpus(t)
		var wantErr bool
		if file, err := obj.Read(data); err != nil {
			wantErr = true
		} else if rec, err := cfg.Recover(file); err != nil {
			wantErr = true
		} else {
			for _, p := range rec.Procs {
				for _, b := range p.Blocks {
					if err := b.Validate(); err != nil {
						t.Fatalf("procedure %s: %v", p.Name, err)
					}
				}
			}
		}
		exe, err := sc.AnalyzeQueryWith("upload", data, 1)
		if (err != nil) != wantErr {
			t.Fatalf("AnalyzeQueryWith error = %v, want error: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i, p := range exe.Procedures() {
			if !sortedUnique(exe.ProcedureStrands(i)) || !sortedUnique(exe.ProcedureMarkers(i)) {
				t.Fatalf("procedure %s: strands or markers not sorted unique", p.Name)
			}
		}
	})
}

func sortedUnique[T uint32 | uint64](s []T) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
