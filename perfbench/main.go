// Command perfbench is firmup's judged benchmark. It generates a seeded
// firmware corpus and query uploads, sets firmupd's request path up
// from them (analyze, seal, write shards, open, warm), serves the
// corpus with serve.Server over loopback HTTP, and drives one workload
// against it for a fixed time. Every response is checked against an
// in-process search, findings are scored against the generator's
// ground truth, and the last line of standard output is one JSON
// result. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload cve-sweep -seed 1 -seconds 7 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix the benchmark can drive.
type workload struct {
	name string
	// image selects per-image requests over a pool of distinct uploads
	// (device-check); otherwise requests are corpus-wide searches for
	// the fixed CVE query set.
	image bool
	// pairs makes every round of the closed loop one pair of identical
	// corpus-wide requests, sent together on both connections, so the
	// server can coalesce them.
	pairs bool
	// batch is the server's coalescing window (serve.Config.BatchWindow).
	batch time.Duration
	// limit is the latency within which a 200 counts toward
	// within_limit_ratio.
	limit time.Duration
}

var workloads = []workload{
	{name: "cve-sweep", limit: 150 * time.Millisecond},
	{name: "device-check", image: true, limit: 60 * time.Millisecond},
	{name: "cve-burst", pairs: true, batch: 5 * time.Millisecond, limit: 150 * time.Millisecond},
}

// devicePoolRate sizes the device-check upload pool: uploads per
// measured second, about twice the throughput measured when the
// benchmark was written, so a twice-faster query path still measures
// the whole phase. A run that drains the pool ends its phase early.
const devicePoolRate = 200

// deviceCountKeys is the size of device-check's fixed request set,
// which the deterministic counts and wrapper timings cover.
const deviceCountKeys = 64

// options configure one run. The command line sets the workload, seed,
// length, tracing and state directory; the corpus size, shard count and
// set-up passes are fixed for judged runs (256 images, 4 shards, 3
// passes) and shrunk only by the tests.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	images   int
	shards   int
	reps     int
	state    string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: cve-sweep, device-check or cve-burst")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the corpus, uploads and request order")
	fs.Float64Var(&o.seconds, "seconds", 7, "measured seconds (per phase pair when tracing)")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.state, "state", ".bench_build/perfbench-state", "directory for scratch shards and recorded counts")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	o.images, o.shards, o.reps = 256, 4, 3
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run executes one benchmark run.
func run(o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 || o.images < 1 || o.shards < 1 || o.reps < 1 {
		return nil, fmt.Errorf("seconds, images, shards and setup-reps must be positive")
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	phases := 1
	if o.trace {
		phases = 2
	}

	// Inputs: everything below is a function of the seed.
	t0 := time.Now()
	images, truth, err := genCorpus(o.seed, o.images)
	if err != nil {
		return nil, err
	}
	// countKeys is the fixed request set behind the deterministic
	// counts. Device-check draws it from its own stream and never
	// serves it, so answering it before timing warms nothing the
	// measured requests use.
	var ups []upload
	var pool []request
	var countKeys []key
	if wl.image {
		n := int(math.Ceil(o.seconds*devicePoolRate)) * phases
		ups, pool, err = deviceUploads(o.seed, "device-check", n, truth, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		cups, creqs, err := deviceUploads(o.seed, "device-check-counts", deviceCountKeys, truth, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		for _, r := range creqs {
			countKeys = append(countKeys, key{len(ups) + r.Upload, r.Image})
		}
		ups = append(ups, cups...)
	} else {
		if ups, err = cveUploads(); err != nil {
			return nil, err
		}
		for u := range ups {
			countKeys = append(countKeys, key{u, -1})
		}
	}
	logf("%s seed %d: inputs generated in %.1fs (%d images, %d uploads)", wl.name, o.seed, time.Since(t0).Seconds(), len(images), len(ups))

	work := filepath.Join(o.state, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	// The warm pass uses the last upload: a count-set upload on
	// device-check, which no measured request repeats.
	sc, setups, err := setupRepeated(images, work, o.shards, o.reps, ups[len(ups)-1])
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	images = nil // the program keeps only what it sealed
	logf("set-up passes: %v", setupTotals(setups))

	var problems []string
	for _, st := range setups[1:] {
		if a, b := st.cache, setups[0].cache; a.Blocks != b.Blocks || a.Unique != b.Unique {
			problems = append(problems, fmt.Sprintf("block cache lookups or entries differ across set-up passes: %+v vs %+v", a, b))
		}
	}

	// The count set is answered in-process before any timing.
	refs := map[key]*reference{}
	if err := references(sc, ups, countKeys, refs, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}

	// Timing starts from a collected heap, so no request pays for the
	// set-up's or the references' garbage.
	runtime.GC()
	lp := &loadPlan{wl: wl, seed: o.seed, ups: ups, pool: pool}
	plain, traced, err := lp.measure(sc, measured, o.trace)
	if err != nil {
		return nil, err
	}

	// Correctness: every 200 must reproduce its in-process reference.
	all := plain.samples
	if traced != nil {
		all = append(append([]sample(nil), all...), traced.samples...)
	}
	var served []key
	for _, s := range all {
		served = append(served, key{s.req.Upload, s.req.Image})
	}
	if err := references(sc, ups, served, refs, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	res := &result{Attempted: len(all), Metrics: map[string]metric{}}
	mismatches := 0
	for _, s := range all {
		if s.err != nil || s.status != 200 {
			res.Failed++
			continue
		}
		if err := verify(s, refs[key{s.req.Upload, s.req.Image}], ups); err != nil {
			if mismatches == 0 {
				problems = append(problems, fmt.Sprintf("upload %d image %d: %v", s.req.Upload, s.req.Image, err))
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		problems = append(problems, fmt.Sprintf("%d responses differ from the in-process search", mismatches))
	}
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d requests failed", res.Failed, res.Attempted))
	}
	lat := plain.latencies()
	c := tally(refs, countKeys, setups[len(setups)-1].cache)
	name := fmt.Sprintf("counts-%s-%dx%d-seed%d", wl.name, o.images, o.shards, o.seed)
	if err := checkCounts(o.state, name, c); err != nil {
		problems = append(problems, err.Error())
	}
	for _, p := range problems {
		logf("FAIL: %s", p)
	}
	res.Correct = len(problems) == 0

	for i := range all {
		all[i].body = nil
	}
	if !o.trace {
		// The heap is read with the generator's own buffers released:
		// response bodies above, upload bytes here.
		for i := range ups {
			ups[i].Data = nil
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		endToEnd(res, wl, plain.elapsed, lat, setups, refs, distinct(served), ups, truth, ms.HeapAlloc)
		return res, nil
	}
	if err := perLayer(res, sc, wl, plain, traced, setups, refs, countKeys, c, ups, truth); err != nil {
		return nil, err
	}
	return res, nil
}

func setupTotals(st []setupTimes) []string {
	var out []string
	for _, s := range st {
		out = append(out, fmt.Sprintf("%.2fs (%d block-cache hits)", s.total().Seconds(), s.cache.Hits))
	}
	return out
}

func distinct(keys []key) []key {
	seen := map[key]bool{}
	var out []key
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// endToEnd fills the untraced run's metrics from the 200 latencies lat
// (milliseconds) measured over elapsed.
func endToEnd(res *result, wl workload, elapsed time.Duration, lat []float64, setups []setupTimes, refs map[key]*reference, served []key, ups []upload, truth [][]exeTruth, heap uint64) {
	ok := len(lat)
	within := 0
	for _, l := range lat {
		if l <= float64(wl.limit)/float64(time.Millisecond) {
			within++
		}
	}
	if above := len(lat) - int(math.Ceil(0.9*float64(len(lat)))); above < 10 {
		logf("only %d samples above p90", above)
	}
	precision, recall := score(refs, served, ups, truth)
	var setup []float64
	for _, s := range setups {
		setup = append(setup, s.total().Seconds())
	}
	attempted := float64(max(res.Attempted, 1))
	m := res.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	m["throughput_rps"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	m["within_limit_ratio"] = metric{float64(within) / attempted, "ratio"}
	m["success_ratio"] = metric{float64(ok) / attempted, "ratio"}
	m["findings_precision"] = metric{precision, "ratio"}
	m["findings_recall"] = metric{recall, "ratio"}
	m["heap_mb"] = metric{float64(heap) / (1 << 20), "MiB"}
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place. 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
