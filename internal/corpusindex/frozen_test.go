package corpusindex

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"firmup/internal/sim"
	"firmup/internal/strand"
)

// freeze builds the sealed form of a live index the way a v2 shard
// persists it: the session vocabulary, its sorted (hash, ID) companion,
// and the index rows flattened into row-ID / row-end / posting slabs.
func freeze(t *testing.T, it *Interner, x *Index, exes []*sim.Exe) *FrozenIndex {
	t.Helper()
	vocab := it.Hashes()
	order := make([]uint32, len(vocab))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if vocab[a] < vocab[b] {
			return -1
		}
		return 1
	})
	sorted := make([]uint64, len(order))
	for i, id := range order {
		sorted[i] = vocab[id]
	}
	f, err := FrozenFromSlabs(vocab, sorted, order)
	if err != nil {
		t.Fatal(err)
	}
	var rowIDs, rowEnds []uint32
	var posts []Posting
	for _, r := range x.Rows() {
		rowIDs = append(rowIDs, r.ID)
		posts = append(posts, r.Posts...)
		rowEnds = append(rowEnds, uint32(len(posts)))
	}
	counts := make([]int32, len(exes))
	for i, e := range exes {
		counts[i] = int32(len(e.Procs))
	}
	fx, err := NewFrozenIndexForeign(f, counts, rowIDs, rowEnds, posts)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func randHashSet(rng *rand.Rand, universe, max int) strand.Set {
	n := 1 + rng.Intn(max)
	hs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		hs = append(hs, uint64(1+rng.Intn(universe)))
	}
	slices.Sort(hs)
	return strand.Set{Hashes: slices.Compact(hs)}
}

// TestFrozenIndexMatchesIndex pins the sealed index to the live one it
// was frozen from: for random corpora and random queries — including
// strands outside the vocabulary, which the overlay gives private IDs —
// Candidates and CandidateIndices agree exactly under every floor.
func TestFrozenIndexMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		it := NewInterner()
		universe := 10 + rng.Intn(60)
		var exes []*sim.Exe
		for e := 1 + rng.Intn(8); e > 0; e-- {
			var procs []*sim.Proc
			for p := 1 + rng.Intn(5); p > 0; p-- {
				procs = append(procs, &sim.Proc{Name: "p", Set: randHashSet(rng, universe, 12)})
			}
			exes = append(exes, sim.FromProcsSession("e", procs, it))
		}
		x := NewIndex(it)
		for _, e := range exes {
			x.Add(e)
		}
		fx := freeze(t, it, x, exes)
		qit := NewQueryInterner(fx.Interner())
		for q := 0; q < 10; q++ {
			// Query hashes range past the corpus universe, so some are
			// novel to both the live session and the frozen vocabulary.
			hs := randHashSet(rng, universe+20, 15)
			live := hs.Interned(it)
			sealed := hs.Interned(qit)
			for _, fl := range []struct {
				minScore int
				ratio    float64
			}{{1, 0}, {2, 0.2}, {3, 0.5}} {
				want, ok := x.Candidates(live, fl.minScore, fl.ratio)
				got, fok := fx.Candidates(sealed, fl.minScore, fl.ratio)
				if !ok || !fok || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d query %d floors %+v: frozen %+v (ok=%v), live %+v (ok=%v)",
						trial, q, fl, got, fok, want, ok)
				}
				ids, _ := fx.CandidateIndices(sealed, fl.minScore, fl.ratio, nil)
				for i, c := range want {
					if ids[i] != c.Exe {
						t.Fatalf("trial %d query %d: CandidateIndices %v disagrees with Candidates %+v", trial, q, ids, want)
					}
				}
			}
		}
		// A query interned under an unrelated session carries
		// incomparable IDs: no information, examine everything.
		if _, ok := fx.Candidates(randHashSet(rng, universe, 5).Interned(NewInterner()), 1, 0); ok {
			t.Fatal("cross-session query must report ok=false")
		}
	}
}

// TestFrozenFromSlabsValidation rejects sorted companions that are not
// exactly the vocabulary re-sorted.
func TestFrozenFromSlabsValidation(t *testing.T) {
	vocab := []uint64{30, 10, 20}
	if _, err := FrozenFromSlabs(vocab, []uint64{10, 20, 30}, []uint32{1, 2, 0}); err != nil {
		t.Fatalf("valid slabs rejected: %v", err)
	}
	for name, c := range map[string]struct {
		hashes []uint64
		ids    []uint32
	}{
		"short":         {[]uint64{10, 20}, []uint32{1, 2}},
		"unsorted":      {[]uint64{20, 10, 30}, []uint32{2, 1, 0}},
		"wrong-id":      {[]uint64{10, 20, 30}, []uint32{0, 2, 1}},
		"id-past-vocab": {[]uint64{10, 20, 30}, []uint32{1, 2, 7}},
	} {
		if _, err := FrozenFromSlabs(vocab, c.hashes, c.ids); err == nil {
			t.Errorf("%s: mismatched slabs accepted", name)
		}
	}
}

// TestNewFrozenIndexForeignValidation rejects slabs no encoder could
// have produced: rows out of order or outside the vocabulary, row ends
// that do not cover the postings, postings outside their executable.
func TestNewFrozenIndexForeignValidation(t *testing.T) {
	f, err := FrozenFromSlabs([]uint64{10, 20, 30}, []uint64{10, 20, 30}, []uint32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int32{2, 1}
	posts := []Posting{{0, 0}, {0, 1}, {1, 0}}
	if _, err := NewFrozenIndexForeign(f, counts, []uint32{0, 2}, []uint32{2, 3}, posts); err != nil {
		t.Fatalf("valid slabs rejected: %v", err)
	}
	for name, c := range map[string]struct {
		ids, ends []uint32
		posts     []Posting
	}{
		"rows-not-increasing": {[]uint32{2, 0}, []uint32{2, 3}, posts},
		"row-past-vocab":      {[]uint32{0, 3}, []uint32{2, 3}, posts},
		"ends-short":          {[]uint32{0, 2}, []uint32{1, 2}, posts},
		"ends-decreasing":     {[]uint32{0, 2}, []uint32{3, 2}, posts},
		"length-mismatch":     {[]uint32{0, 2}, []uint32{3}, posts},
		"posting-bad-exe":     {[]uint32{0}, []uint32{1}, []Posting{{2, 0}}},
		"posting-bad-proc":    {[]uint32{0}, []uint32{1}, []Posting{{1, 1}}},
	} {
		if _, err := NewFrozenIndexForeign(f, counts, c.ids, c.ends, c.posts); err == nil {
			t.Errorf("%s: invalid slabs accepted", name)
		}
	}
}
