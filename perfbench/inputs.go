package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"firmup/internal/compiler"
	"firmup/internal/corpus"
	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// archs are the four ISAs every CVE query is compiled for, in the
// order the evaluation uses.
var archs = []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86}

// rng is the benchmark's deterministic PRNG (splitmix64). Every input
// decision is drawn from one, seeded by --seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001B3 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exeTruth is the generator's ground truth for one executable of an
// image, in image order.
type exeTruth struct {
	Path    string
	Pkg     string
	Arch    uir.Arch
	Version string
	// Truth maps original procedure names to addresses.
	Truth map[string]uint32
}

// upload is one query executable the load generator POSTs.
type upload struct {
	CVE     *corpus.CVE
	Arch    uir.Arch
	Version string
	Data    []byte
}

// request is one /search call: an upload and its scope (-1 for the
// whole corpus, else an image index).
type request struct {
	Upload int
	Image  int
}

// genCorpus generates the first n images of the seeded corpus as packed
// image bytes (what firmupd's analyzer receives) plus the per-image
// ground truth.
func genCorpus(seed uint64, n int) ([][]byte, [][]exeTruth, error) {
	sc := corpus.ScaleForImages(n)
	sc.Seed = seed
	var images [][]byte
	var truth [][]exeTruth
	err := corpus.Stream(sc, func(bi *corpus.BuiltImage) error {
		images = append(images, bi.Image.Pack(true))
		ts := make([]exeTruth, len(bi.Exes))
		for i, e := range bi.Exes {
			ts[i] = exeTruth{Path: e.Path, Pkg: e.Pkg, Arch: e.Arch, Version: e.PkgVersion, Truth: e.Truth}
		}
		truth = append(truth, ts)
		if len(images) == n {
			return corpus.ErrStop
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("generating corpus: %w", err)
	}
	if len(images) != n {
		return nil, nil, fmt.Errorf("corpus scale yields %d images, want %d", len(images), n)
	}
	return images, truth, nil
}

// cveUploads compiles the analyst's fixed query set: every registered
// CVE's query version for every ISA, with the default query profile
// (corpus.QueryExe).
func cveUploads() ([]upload, error) {
	var out []upload
	for i := range corpus.CVEs {
		c := &corpus.CVEs[i]
		for _, a := range archs {
			_, f, err := corpus.QueryExe(c.Package, c.QueryVersion, a)
			if err != nil {
				return nil, fmt.Errorf("compiling %s query for %v: %w", c.ID, a, err)
			}
			out = append(out, upload{CVE: c, Arch: a, Version: c.QueryVersion, Data: f.Bytes()})
		}
	}
	return out, nil
}

// sweepOrder returns the upload index of request i of a round-robin
// over n uploads, reshuffled by the seed every round: each upload
// appears once per round, in seeded order.
func sweepOrder(seed uint64, n, i int) int {
	r := newRNG(seed, fmt.Sprintf("round-%d", i/n))
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	for j := n - 1; j > 0; j-- {
		k := r.intn(j + 1)
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm[i%n]
}

// deviceSpec is one device-check upload before compilation: a device
// (image), a CVE whose package it ships, and that package at a seeded
// version built for the device's ISA under a seeded compiler profile.
type deviceSpec struct {
	cve     *corpus.CVE
	version string
	arch    uir.Arch
	opt     int
	regSeed uint64
	sched   uint64
	mul     bool
	base    uint32
	image   int
}

// mirKey names the front-end build an upload starts from; the MIR does
// not depend on the target ISA.
func (s deviceSpec) mirKey() string { return fmt.Sprintf("%s@%s/O%d", s.cve.Package, s.version, s.opt) }

// layoutBases are the text bases device-check uploads are linked at.
var layoutBases = []uint32{0x400000, 0x10000, 0x80100000, 0x440000}

// deviceUploads builds a device-check request pool of n distinct
// uploads, drawn from the named rng stream of the seed. Each request
// checks one seeded device (image) for a CVE whose package the device
// ships (any CVE when it ships none), with the query built for the
// device's ISA. Specs are drawn first, in seed order; compilation then
// runs on a bounded worker pool grouped by front-end build (the MIR is
// shared by every upload of one package version and optimization
// level), so the bytes do not depend on scheduling.
func deviceUploads(seed uint64, stream string, n int, truth [][]exeTruth, workers int) ([]upload, []request, error) {
	versions, err := procVersions()
	if err != nil {
		return nil, nil, err
	}
	r := newRNG(seed, stream)
	specs := make([]deviceSpec, n)
	for i := range specs {
		image := r.intn(len(truth))
		ships := map[string]bool{}
		for _, e := range truth[image] {
			ships[e.Pkg] = true
		}
		var cands []*corpus.CVE
		for j := range corpus.CVEs {
			if ships[corpus.CVEs[j].Package] {
				cands = append(cands, &corpus.CVEs[j])
			}
		}
		if len(cands) == 0 {
			for j := range corpus.CVEs {
				cands = append(cands, &corpus.CVEs[j])
			}
		}
		c := cands[r.intn(len(cands))]
		vs := versions[c.ID]
		specs[i] = deviceSpec{
			cve:     c,
			version: vs[r.intn(len(vs))],
			arch:    truth[image][0].Arch,
			opt:     1 + r.intn(3),
			regSeed: r.next(),
			sched:   r.next(),
			mul:     r.intn(2) == 0,
			base:    layoutBases[r.intn(len(layoutBases))],
			image:   image,
		}
	}
	groups := map[string][]int{}
	var keys []string
	for i, s := range specs {
		k := s.mirKey()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(keys)
	ups := make([]upload, n)
	errs := make([]error, len(keys))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range jobs {
				errs[gi] = compileGroup(specs, groups[keys[gi]], ups)
			}
		}()
	}
	for gi := range keys {
		jobs <- gi
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	reqs := make([]request, n)
	for i, s := range specs {
		reqs[i] = request{Upload: i, Image: s.image}
	}
	return ups, reqs, nil
}

// procVersions maps each CVE to the package versions whose source
// defines its procedure, so every device-check upload can be searched
// for it.
func procVersions() (map[string][]string, error) {
	out := map[string][]string{}
	for i := range corpus.CVEs {
		c := &corpus.CVEs[i]
		for _, v := range corpus.PackageVersions(c.Package) {
			src, err := corpus.PackageSource(c.Package, v)
			if err != nil {
				return nil, err
			}
			if strings.Contains(src, "func "+c.Procedure+"(") {
				out[c.ID] = append(out[c.ID], v)
			}
		}
		if len(out[c.ID]) == 0 {
			return nil, fmt.Errorf("no version of %s defines %s", c.Package, c.Procedure)
		}
	}
	return out, nil
}

// compileGroup compiles the uploads idx, which share one front-end
// build, into ups.
func compileGroup(specs []deviceSpec, idx []int, ups []upload) error {
	s0 := specs[idx[0]]
	src, err := corpus.PackageSource(s0.cve.Package, s0.version)
	if err != nil {
		return err
	}
	prof := compiler.DefaultQueryProfile(s0.arch)
	prof.OptLevel = s0.opt
	m, err := compiler.CompileToMIR(src, prof)
	if err != nil {
		return fmt.Errorf("compiling %s: %w", s0.mirKey(), err)
	}
	for _, i := range idx {
		s := specs[i]
		be, err := isa.ByArch(s.arch)
		if err != nil {
			return err
		}
		art, err := be.Generate(m, isa.Options{TextBase: s.base, RegSeed: s.regSeed, SchedSeed: s.sched, MulByShift: s.mul})
		if err != nil {
			return fmt.Errorf("generating %s: %w", s.mirKey(), err)
		}
		f := obj.FromArtifact(art)
		if _, ok := f.NamedSym(s.cve.Procedure); !ok {
			return fmt.Errorf("%s build lacks %s", s.mirKey(), s.cve.Procedure)
		}
		ups[i] = upload{CVE: s.cve, Arch: s.arch, Version: s.version, Data: f.Bytes()}
	}
	return nil
}
