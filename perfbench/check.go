package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"firmup"
	"firmup/internal/serve"
)

// key identifies a distinct request: an upload and its scope.
type key struct{ upload, image int }

// reference is the in-process answer to one distinct request, which
// every HTTP response for it must reproduce.
type reference struct {
	images  []firmup.ImageFindings
	strands int // the query procedure's strand count
	// Whole-upload analysis counts.
	blocks, allStrands int
}

// computeReference answers k in-process: the upload analyzed against
// the sealed corpus, then SearchAll for a corpus-wide request or
// SearchImageDetailed for a single image.
func computeReference(sc *firmup.SealedCorpus, ups []upload, k key) (*reference, error) {
	u := ups[k.upload]
	q, err := sc.AnalyzeQueryWith("query", u.Data, 0)
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for _, p := range q.Procedures() {
		ref.blocks += p.Blocks
		ref.allStrands += p.Strands
		if p.Name == u.CVE.Procedure {
			ref.strands = p.Strands
		}
	}
	if ref.images, err = search(sc, q, u.CVE.Procedure, k.image); err != nil {
		return nil, err
	}
	for i := range ref.images {
		if ref.images[i].Findings == nil {
			ref.images[i].Findings = []firmup.Finding{}
		}
	}
	return ref, nil
}

// search runs an analyzed query over one request's scope as the
// server does: SearchAll over the corpus (image < 0), else
// SearchImageDetailed over that image.
func search(sc *firmup.SealedCorpus, q *firmup.Executable, proc string, image int) ([]firmup.ImageFindings, error) {
	if image < 0 {
		return sc.SearchAll(q, proc, nil)
	}
	img := sc.Images()[image]
	res, err := sc.SearchImageDetailed(q, proc, img, nil)
	if err != nil {
		return nil, err
	}
	return []firmup.ImageFindings{{Vendor: img.Vendor, Device: img.Device, Version: img.Version, Findings: res.Findings, Examined: res.Examined}}, nil
}

// references computes the reference of every key not yet in refs, on
// a bounded worker pool.
func references(sc *firmup.SealedCorpus, ups []upload, keys []key, refs map[key]*reference, workers int) error {
	var todo []key
	seen := map[key]bool{}
	for _, k := range keys {
		if refs[k] == nil && !seen[k] {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	out := make([]*reference, len(todo))
	errs := make([]error, len(todo))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = computeReference(sc, ups, todo[i])
			}
		}()
	}
	for i := range todo {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, k := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference for upload %d image %d: %w", k.upload, k.image, errs[i])
		}
		refs[k] = out[i]
	}
	return nil
}

// verify checks one 200 response against its reference: every image's
// findings (procedure, address, score, confidence and game steps) and
// examined count, the totals, and the query's strand count.
func verify(s sample, ref *reference, ups []upload) error {
	var resp serve.SearchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	u := ups[s.req.Upload]
	if resp.Procedure != u.CVE.Procedure {
		return fmt.Errorf("procedure %q, want %q", resp.Procedure, u.CVE.Procedure)
	}
	if resp.QueryStrands != ref.strands {
		return fmt.Errorf("query_strands %d, want %d", resp.QueryStrands, ref.strands)
	}
	total := 0
	for _, im := range ref.images {
		total += len(im.Findings)
	}
	if resp.TotalFindings != total {
		return fmt.Errorf("total_findings %d, want %d", resp.TotalFindings, total)
	}
	if len(resp.Images) != len(ref.images) {
		return fmt.Errorf("%d images, want %d", len(resp.Images), len(ref.images))
	}
	for i := range ref.images {
		if !reflect.DeepEqual(resp.Images[i], ref.images[i]) {
			return fmt.Errorf("image %d differs from the in-process search", i)
		}
	}
	return nil
}

// counts are the deterministic totals of a run's fixed reference set:
// they must repeat exactly on every run of one seed, traced or not.
// The set-up's block cache contributes its lookups and distinct
// entries. Its hit count is not deterministic: two analysis workers
// that meet the same new block at once both miss.
type counts struct {
	Examined    int   `json:"core.examined"`
	Findings    int   `json:"core.findings"`
	GameSteps   int   `json:"core.game_steps"`
	Blocks      int   `json:"cfg.blocks"`
	Strands     int   `json:"strand.query_strands"`
	CacheBlocks int64 `json:"strand.block_cache_lookups"`
	CacheUnique int   `json:"strand.block_cache_unique"`
}

// tally sums the counts of the given references (one per key).
func tally(refs map[key]*reference, keys []key, cache firmup.CacheStats) counts {
	c := counts{CacheBlocks: cache.Blocks, CacheUnique: cache.Unique}
	for _, k := range keys {
		r := refs[k]
		c.Blocks += r.blocks
		c.Strands += r.allStrands
		for _, im := range r.images {
			c.Examined += im.Examined
			c.Findings += len(im.Findings)
			for _, f := range im.Findings {
				c.GameSteps += f.GameSteps
			}
		}
	}
	return c
}

// checkCounts compares c with the counts an earlier run of the same
// workload, seed and scale recorded under state, recording them when
// this is the first such run.
func checkCounts(state, name string, c counts) error {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	path := filepath.Join(state, name+".json")
	if prev, err := os.ReadFile(path); err == nil {
		var want counts
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if want != c {
			return fmt.Errorf("deterministic counts %+v differ from an earlier run's %+v (%s)", c, want, path)
		}
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	blob, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// score rates the findings of the distinct requests keys against the
// generator's ground truth, as the Table 2 experiment does: a finding
// is correct when it names the queried procedure (or, for
// curl_easy_unescape, its deprecated predecessor); the occurrences to
// find are the in-scope executables of the query's ISA that hold the
// procedure in a vulnerable version.
func score(refs map[key]*reference, keys []key, ups []upload, truth [][]exeTruth) (precision, recall float64) {
	var found, correct, want, hit int
	for _, k := range keys {
		u := ups[k.upload]
		names := map[string]bool{u.CVE.Procedure: true}
		if u.CVE.Procedure == "curl_easy_unescape" {
			names["curl_unescape"] = true
		}
		for i, im := range refs[k].images {
			ii := i
			if k.image >= 0 {
				ii = k.image
			}
			byPath := map[string]firmup.Finding{}
			for _, f := range im.Findings {
				byPath[f.ExePath] = f
			}
			for _, e := range truth[ii] {
				f, ok := byPath[e.Path]
				ok = ok && names[truthName(e.Truth, f.ProcAddr)]
				if ok {
					correct++
				}
				addr, has := e.Truth[u.CVE.Procedure]
				if has && e.Arch == u.Arch && u.CVE.VulnerableIn(e.Version) {
					want++
					if ok && f.ProcAddr == addr {
						hit++
					}
				}
			}
			found += len(im.Findings)
		}
	}
	precision, recall = 1, 1
	if found > 0 {
		precision = float64(correct) / float64(found)
	}
	if want > 0 {
		recall = float64(hit) / float64(want)
	}
	return precision, recall
}

func truthName(t map[string]uint32, addr uint32) string {
	for n, a := range t {
		if a == addr {
			return n
		}
	}
	return ""
}
