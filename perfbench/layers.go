package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"firmup"
	"firmup/internal/cfg"
	"firmup/internal/obj"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
)

// spanTimes is one traced request's split by the program's own spans,
// all in milliseconds. The search sub-layers are busy time: summed over
// the per-image spans, which run in parallel across shards.
type spanTimes struct {
	request, readBody, analyze, search float64
	shards                             []float64
	materialize, core, prefilter       float64
	hasCore                            bool
	// coalesce is the serve.coalesce span; pass is the wall time of the
	// batched search it ran (leader) or waited on (follower, filled in
	// from the leader's trace).
	coalesce, pass float64
	leader         string
	hasCoalesce    bool
}

// splitTrace reads the layer times out of one request's span tree.
func splitTrace(t telemetry.TraceSnapshot) spanTimes {
	var st spanTimes
	ms := func(us float64) float64 { return us / 1e3 }
	var coalesceID int32
	var shardSum float64
	passLo, passHi := -1.0, -1.0
	for _, s := range t.Spans {
		switch s.Name {
		case "request":
			st.request = ms(s.DurUS)
		case "read_body":
			st.readBody = ms(s.DurUS)
		case "analyze_query":
			st.analyze = ms(s.DurUS)
		case "search":
			st.search = ms(s.DurUS)
		case "serve.coalesce":
			st.coalesce, st.hasCoalesce, coalesceID = ms(s.DurUS), true, s.ID
			if l, ok := s.Attrs["leader_trace"].(string); ok {
				st.leader = l
			}
		case "corpus.shard":
			st.shards = append(st.shards, ms(s.DurUS))
			shardSum += ms(s.DurUS)
		case "store.materialize":
			st.materialize += ms(s.DurUS)
		case "core.search", "core.search_batch":
			st.core += ms(s.DurUS)
			st.hasCore = true
		}
	}
	// The batched pass is every span directly under the coalesce span.
	for _, s := range t.Spans {
		if coalesceID != 0 && s.Parent == coalesceID {
			if passLo < 0 || s.StartUS < passLo {
				passLo = s.StartUS
			}
			if end := s.StartUS + s.DurUS; end > passHi {
				passHi = end
			}
		}
	}
	if passLo >= 0 {
		st.pass = ms(passHi - passLo)
	}
	// Per-image search time is the shard spans on a corpus-wide search,
	// else the span the per-image spans hang under.
	busy := shardSum
	if len(st.shards) == 0 {
		switch {
		case st.hasCoalesce:
			busy = st.pass
		default:
			busy = st.search
		}
	}
	if st.hasCore {
		st.prefilter = busy - st.materialize - st.core
	}
	return st
}

// wrapperTimes is the benchmark's own timing of calls into each
// module's public functions for one upload, in microseconds.
type wrapperTimes struct {
	read, recover, analyze, search, encode float64
}

// timeWrappers times obj.Read, cfg.Recover, AnalyzeQueryWith, the
// workload's search call and the response encoding on one request.
// search runs the query exactly as the server would for the workload:
// SearchAll, SearchImageDetailed, or SearchAllBatch over the pair.
func timeWrappers(sc *firmup.SealedCorpus, u upload, image int, pair bool, ref *reference) (wrapperTimes, error) {
	var w wrapperTimes
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	t0 := time.Now()
	f, err := obj.Read(u.Data)
	w.read = us(t0)
	if err != nil {
		return w, err
	}
	t0 = time.Now()
	if _, err := cfg.Recover(f); err != nil {
		return w, err
	}
	w.recover = us(t0)
	t0 = time.Now()
	q, err := sc.AnalyzeQueryWith("query", u.Data, 0)
	w.analyze = us(t0)
	if err != nil {
		return w, err
	}
	proc := u.CVE.Procedure
	var images []firmup.ImageFindings
	t0 = time.Now()
	switch {
	case pair:
		var res [][]firmup.ImageFindings
		res, err = sc.SearchAllBatch([]firmup.BatchQuery{{Query: q, Procedure: proc}, {Query: q, Procedure: proc}}, nil)
		if err == nil {
			images = res[0]
		}
	default:
		images, err = search(sc, q, proc, image)
	}
	w.search = us(t0)
	if err != nil {
		return w, err
	}
	for i := range images {
		if images[i].Examined != ref.images[i].Examined || len(images[i].Findings) != len(ref.images[i].Findings) {
			return w, fmt.Errorf("timed search of image %d disagrees with the reference", i)
		}
	}
	// Encode as the server does (writeJSON): a streaming encoder with
	// HTML escaping off.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	t0 = time.Now()
	err = enc.Encode(&serve.SearchResponse{SchemaVersion: serve.SchemaVersion, Procedure: proc, Images: ref.images})
	w.encode = us(t0)
	return w, err
}

// perLayer fills the traced run's metrics: set-up layers from the
// set-up passes, query analysis and search from the benchmark's own
// wrappers over the count set, in-situ layer times from the traced
// server's spans, and the deterministic counts per request.
func perLayer(res *result, sc *firmup.SealedCorpus, wl workload, plain, traced *phaseResult, setups []setupTimes, refs map[key]*reference, countKeys []key, c counts, ups []upload, truth [][]exeTruth) error {
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	setupMedian := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, f(s).Seconds())
		}
		return median(xs)
	}
	set("setup.analyze_s", setupMedian(func(s setupTimes) time.Duration { return s.analyze }), "s")
	set("setup.seal_s", setupMedian(func(s setupTimes) time.Duration { return s.seal }), "s")
	set("setup.write_shards_s", setupMedian(func(s setupTimes) time.Duration { return s.write }), "s")
	set("setup.open_ms", 1e3*setupMedian(func(s setupTimes) time.Duration { return s.open }), "ms")
	set("setup.warm_s", setupMedian(func(s setupTimes) time.Duration { return s.warm }), "s")
	last := setups[len(setups)-1]
	set("strand.block_cache_hit_ratio", last.cache.HitRate(), "ratio")
	set("snapshot.shard_bytes", float64(last.shardBytes), "bytes")

	var read, recov, build, analyze, searchAll, encode []float64
	for _, k := range countKeys {
		w, err := timeWrappers(sc, ups[k.upload], k.image, wl.pairs, refs[k])
		if err != nil {
			return fmt.Errorf("timing upload %d: %w", k.upload, err)
		}
		read = append(read, w.read)
		recov = append(recov, w.recover/1e3)
		build = append(build, (w.analyze-w.read-w.recover)/1e3)
		analyze = append(analyze, w.analyze/1e3)
		searchAll = append(searchAll, w.search/1e3)
		encode = append(encode, w.encode)
	}
	set("obj.read_us", median(read), "us")
	set("cfg.recover_ms", median(recov), "ms")
	set("sim.build_ms", median(build), "ms")
	set("analyze.query_ms", median(analyze), "ms")
	set("search.all_ms", median(searchAll), "ms")
	set("serve.encode_us", median(encode), "us")

	n := float64(len(countKeys))
	scope := 0
	for _, k := range countKeys {
		if k.image >= 0 {
			scope += len(truth[k.image])
		} else {
			scope += sc.Executables()
		}
	}
	set("cfg.blocks", float64(c.Blocks)/n, "count")
	set("strand.query_strands", float64(c.Strands)/n, "count")
	set("core.examined", float64(c.Examined)/n, "count")
	set("core.findings", float64(c.Findings)/n, "count")
	set("core.game_steps", float64(c.GameSteps)/n, "count")
	set("corpusindex.candidate_ratio", float64(c.Examined)/float64(max(scope, 1)), "ratio")
	set("core.yield", float64(c.Findings)/float64(max(c.Examined, 1)), "ratio")

	var request, readBody, self, analyzeQ, searchQ, accounted []float64
	var shardMax, imbalance, mat, core, pre, wait []float64
	for _, s := range traced.samples {
		if s.err != nil || s.status != 200 {
			continue
		}
		t, ok := traced.traces[s.traceID]
		if !ok {
			return fmt.Errorf("trace %q of a traced request was not retained", s.traceID)
		}
		st := splitTrace(t)
		request = append(request, st.request)
		readBody = append(readBody, st.readBody*1e3)
		self = append(self, st.request-st.analyze-st.search)
		analyzeQ = append(analyzeQ, st.analyze)
		searchQ = append(searchQ, st.search)
		accounted = append(accounted, st.request/(float64(s.latency)/float64(time.Millisecond)))
		if len(st.shards) > 0 {
			hi, sum := 0.0, 0.0
			for _, d := range st.shards {
				hi = max(hi, d)
				sum += d
			}
			shardMax = append(shardMax, hi)
			imbalance = append(imbalance, hi/(sum/float64(len(st.shards))))
		}
		if st.hasCore {
			mat = append(mat, st.materialize)
			core = append(core, st.core)
			pre = append(pre, st.prefilter)
		}
		if st.hasCoalesce {
			pass := st.pass
			if st.leader != "" {
				lt, ok := traced.traces[st.leader]
				if !ok {
					return fmt.Errorf("leader trace %q was not retained", st.leader)
				}
				pass = splitTrace(lt).pass
			}
			wait = append(wait, st.coalesce-pass)
		}
	}
	set("trace.request_ms", median(request), "ms")
	set("trace.analyze_query_ms", median(analyzeQ), "ms")
	set("trace.search_ms", median(searchQ), "ms")
	set("trace.accounted_ratio", median(accounted), "ratio")
	set("serve.self_ms", median(self), "ms")
	set("serve.read_body_us", median(readBody), "us")
	set("search.shard_max_ms", median(shardMax), "ms")
	set("search.shard_imbalance", median(imbalance), "ratio")
	set("store.materialize_ms", median(mat), "ms")
	set("core.search_ms", median(core), "ms")
	set("corpusindex.prefilter_ms", median(pre), "ms")
	set("serve.coalesce_wait_ms", median(wait), "ms")
	set("serve.batch_size_mean", traced.batchMean, "count")

	plainLat, tracedLat := plain.latencies(), traced.latencies()
	set("telemetry.trace_overhead_ratio", median(tracedLat)/median(plainLat), "ratio")
	return nil
}
