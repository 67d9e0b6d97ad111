package strand_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpus"
	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

// goldenStrandDigest pins the canonical strand output over the golden
// inputs (see TestGoldenStrandDigest). It changes only when the
// canonical form itself changes — and then every sealed vocabulary,
// shard and finding derived from strands changes with it.
const goldenStrandDigest uint64 = 0x547088c49f708891

// goldenInput is one executable of the golden set.
type goldenInput struct {
	label string
	file  *obj.File
}

// goldenInputs returns the 36 CVE query executables (every CVE's query
// version on all four ISAs, symbols intact) plus the first shipped
// image of each ISA from the seed-1 default-scale corpus (stripped
// vendor builds).
func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var out []goldenInput
	archs := []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86}
	for _, cve := range corpus.CVEs {
		for _, arch := range archs {
			_, f, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenInput{label: cve.ID + "/" + arch.String(), file: f})
		}
	}
	seen := map[uir.Arch]bool{}
	err := corpus.Stream(corpus.DefaultScale(), func(bi *corpus.BuiltImage) error {
		if len(bi.Exes) == 0 || seen[bi.Exes[0].Arch] {
			return nil
		}
		seen[bi.Exes[0].Arch] = true
		for _, e := range bi.Exes {
			out = append(out, goldenInput{label: bi.Device + "/" + bi.FwVersion + "/" + e.Path, file: e.File})
		}
		if len(seen) == len(archs) {
			return corpus.ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(archs) {
		t.Fatalf("golden images cover %d ISAs, want %d", len(seen), len(archs))
	}
	return out
}

// TestGoldenStrandDigest is the byte-identity contract of strand
// extraction: one FNV-1a digest over the text and hash of every strand
// ExtractBlock emits, plus each procedure's single-pass Extractor
// output (hashes and markers), for every procedure of the golden
// inputs with KeepTrivial off and on. Any change to canonical text,
// strand hashing, dedup order or marker selection moves the digest.
func TestGoldenStrandDigest(t *testing.T) {
	inputs := goldenInputs(t)
	d := fnv.New64a()
	var buf [8]byte
	word := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	strands, procs := 0, 0
	for _, in := range inputs {
		rec, err := cfg.Recover(in.file)
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		be, err := isa.ByArch(rec.Arch)
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		for _, keep := range []bool{false, true} {
			opt := &strand.Options{ABI: be.ABI(), Sections: in.file.Map(), KeepTrivial: keep}
			ex := strand.NewExtractor(opt, nil, nil)
			for _, p := range rec.Procs {
				procs++
				for _, b := range p.Blocks {
					for _, s := range strand.ExtractBlock(b, opt) {
						d.Write([]byte(s.Text))
						d.Write([]byte{0})
						word(d, s.Hash)
						strands++
					}
					d.Write([]byte{1})
				}
				set, markers := ex.Proc(p.Blocks)
				word(d, uint64(len(set.Hashes)))
				for _, h := range set.Hashes {
					word(d, h)
				}
				word(d, uint64(len(markers)))
				for _, m := range markers {
					word(d, uint64(m))
				}
			}
		}
	}
	got := d.Sum64()
	t.Logf("%d inputs, %d procedure extractions, %d strands, digest %#016x", len(inputs), procs, strands, got)
	if got != goldenStrandDigest {
		t.Fatalf("golden strand digest = %#016x, want %#016x: canonical strand output changed", got, goldenStrandDigest)
	}
}
