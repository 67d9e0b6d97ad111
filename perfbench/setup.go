package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firmup"
)

// setupTimes is one set-up pass, split by layer.
type setupTimes struct {
	analyze, seal, write, open, warm time.Duration
	cache                            firmup.CacheStats
	shardBytes                       int64
}

func (s setupTimes) total() time.Duration {
	return s.analyze + s.seal + s.write + s.open + s.warm
}

// setupOnce is the program's set-up as firmupd deployments run it:
// every image analyzed under one session (Analyzer.OpenImage), the
// session sealed, written as a shard set and opened from disk, then one
// exhaustive corpus-wide search that finishes lazy materialization so
// requests never pay it. The returned corpus serves from dir.
func setupOnce(images [][]byte, dir string, shards int, warm upload) (*firmup.SealedCorpus, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	a := firmup.NewAnalyzer(nil)
	imgs := make([]*firmup.Image, len(images))
	for i, data := range images {
		img, err := a.OpenImage(data)
		if err != nil {
			return nil, st, fmt.Errorf("image %d: %w", i, err)
		}
		if len(img.Skipped) > 0 {
			return nil, st, fmt.Errorf("image %d: %d executables skipped, first %s: %v", i, len(img.Skipped), img.Skipped[0].Path, img.Skipped[0].Err)
		}
		imgs[i] = img
	}
	t1 := time.Now()
	sealed, err := a.Seal(imgs...)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	paths, err := sealed.WriteShards(dir, shards)
	if err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	sc, err := firmup.OpenSealedCorpusDir(dir)
	if err != nil {
		return nil, st, err
	}
	t4 := time.Now()
	q, err := sc.AnalyzeQuery(warm.Data)
	if err == nil {
		_, err = sc.SearchAll(q, warm.CVE.Procedure, &firmup.Options{Exhaustive: true})
	}
	if err != nil {
		sc.Close()
		return nil, st, fmt.Errorf("warm pass: %w", err)
	}
	t5 := time.Now()
	st = setupTimes{
		analyze: t1.Sub(t0), seal: t2.Sub(t1), write: t3.Sub(t2), open: t4.Sub(t3), warm: t5.Sub(t4),
		cache: a.CacheStats(),
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			sc.Close()
			return nil, st, err
		}
		st.shardBytes += fi.Size()
	}
	return sc, st, nil
}

// setupRepeated runs the set-up reps times from scratch, each into its
// own directory under work, and keeps the last corpus open for serving.
// Earlier corpora are closed and their shards removed before the next
// pass starts.
func setupRepeated(images [][]byte, work string, shards, reps int, warm upload) (*firmup.SealedCorpus, []setupTimes, error) {
	var sc *firmup.SealedCorpus
	var all []setupTimes
	for r := 0; r < reps; r++ {
		if sc != nil {
			sc.Close()
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("setup-%d", r-1))); err != nil {
				return nil, nil, err
			}
		}
		// Start every pass from a collected heap, so no pass pays for
		// the previous one's garbage.
		runtime.GC()
		var st setupTimes
		var err error
		sc, st, err = setupOnce(images, filepath.Join(work, fmt.Sprintf("setup-%d", r)), shards, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up pass %d: %w", r+1, err)
		}
		all = append(all, st)
	}
	return sc, all, nil
}
