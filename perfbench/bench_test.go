package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSeedDeterminism(t *testing.T) {
	i7, truth, err := genCorpus(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	devices := func(seed uint64) ([]upload, []request) {
		ups, reqs, err := deviceUploads(seed, "device-check", 24, truth, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ups, reqs
	}
	a, ar := devices(7)
	b, br := devices(7)
	c, cr := devices(8)
	same, differ := true, false
	seen := map[string]bool{}
	for i := range a {
		same = same && bytes.Equal(a[i].Data, b[i].Data)
		differ = differ || !bytes.Equal(a[i].Data, c[i].Data)
		if seen[string(a[i].Data)] {
			t.Errorf("device upload %d repeats an earlier upload", i)
		}
		seen[string(a[i].Data)] = true
	}
	if !same || !reflect.DeepEqual(ar, br) {
		t.Error("device-check uploads differ between runs of one seed")
	}
	if !differ || reflect.DeepEqual(ar, cr) {
		t.Error("device-check uploads do not depend on the seed")
	}

	var o7, o8 []int
	for i := 0; i < 72; i++ {
		o7 = append(o7, sweepOrder(7, 36, i))
		o8 = append(o8, sweepOrder(8, 36, i))
		if sweepOrder(7, 36, i) != o7[i] {
			t.Fatal("sweep order differs between calls of one seed")
		}
	}
	if reflect.DeepEqual(o7, o8) {
		t.Error("sweep order does not depend on the seed")
	}
	round := append([]int(nil), o7[36:]...)
	sort.Ints(round)
	for i, u := range round {
		if u != i {
			t.Fatalf("a sweep round is not a permutation of the uploads: %v", o7[36:])
		}
	}

	i7b, _, _ := genCorpus(7, 4)
	i8, _, _ := genCorpus(8, 4)
	if !reflect.DeepEqual(i7, i7b) {
		t.Error("corpus images differ between runs of one seed")
	}
	if reflect.DeepEqual(i7, i8) {
		t.Error("corpus images do not depend on the seed")
	}
}

// TestSmokeSchema runs every workload on a tiny corpus, untraced and
// traced, and checks the result against BENCHMARK.json: every listed
// metric present with its unit and nothing else, every response
// correct, the deterministic counts equal between the two runs (they
// share the recorded-counts directory), and cve-burst's pairs
// coalesced.
func TestSmokeSchema(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json judges workloads %v, want every workload %v", names, ours)
	}
	state := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: w.name, seed: 3, seconds: 0.6, trace: traced, images: 8, shards: 2, reps: 2, state: state})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if traced && w.pairs && res.Metrics["serve.batch_size_mean"].Value <= 1 {
				t.Errorf("%s: serve.batch_size_mean = %v, want pairs coalesced", w.name, res.Metrics["serve.batch_size_mean"].Value)
			}
			if !traced {
				for _, name := range []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p90_ms", "heap_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]any
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if len(back) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", back)
			}
		}
	}
}

// TestCountsGate checks that a run whose deterministic counts differ
// from an earlier run of the same seed is reported incorrect.
func TestCountsGate(t *testing.T) {
	state := t.TempDir()
	o := options{workload: "device-check", seed: 5, seconds: 0.3, images: 4, shards: 1, reps: 1, state: state}
	if res, err := run(o); err != nil || !res.Correct {
		t.Fatalf("first run: %v %+v", err, res)
	}
	path := filepath.Join(state, "counts-device-check-4x1-seed5.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	c.Examined++
	blob, _ = json.Marshal(c)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a run with changed deterministic counts was reported correct")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q < 4.59 || q > 4.61 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}
