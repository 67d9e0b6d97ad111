package snapshot

import (
	"errors"
	"reflect"
	"testing"
)

// testCorpus is a small but fully featured sealed corpus: one shared
// vocabulary, two images with differing shapes (skips, no index,
// present-but-empty index).
func testCorpus() *Corpus {
	return &Corpus{
		Interner: []uint64{0xdeadbeef, 0x1122334455667788, 0xcafebabe, 42, 7},
		Images: []CorpusImage{
			{
				Vendor: "netgear", Device: "R6250", Version: "1.0.4",
				Skipped: []Skip{{Path: "bin/busybox", Err: "unsupported arch 0xC8"}},
				Exes: []Exe{
					{
						Path: "bin/wget", Arch: 1, Stripped: true,
						Procs: []Proc{
							{
								Name: "sub_400100", Addr: 0x400100,
								IDs: []uint32{0, 2, 4}, Markers: []uint32{0x1f},
								BlockCount: 7, EdgeCount: 9, InstCount: 55, Calls: []int32{1},
							},
							{
								Name: "sub_400200", Addr: 0x400200, Exported: true,
								IDs: []uint32{1, 3}, BlockCount: 2, EdgeCount: 1, InstCount: 12,
							},
						},
					},
				},
				Index: []IndexRow{
					{ID: 0, Posts: []Posting{{Exe: 0, Proc: 0}}},
					{ID: 2, Posts: []Posting{{Exe: 0, Proc: 0}}},
					{ID: 3, Posts: []Posting{{Exe: 0, Proc: 1}}},
				},
			},
			{
				Vendor: "dlink", Device: "DIR-850", Version: "2.07",
				Exes: []Exe{
					{
						Path: "sbin/httpd", Arch: 2,
						Procs: []Proc{
							{Name: "main", Addr: 0x10000, IDs: []uint32{2}, BlockCount: 1, InstCount: 3},
						},
					},
				},
				// No index: must round-trip as nil, not empty.
			},
		},
	}
}

// mustEncodeCorpus encodes c as the single shard of a one-shard corpus.
func mustEncodeCorpus(t *testing.T, c *Corpus) []byte {
	t.Helper()
	return mustEncodeShard(t, c, ShardHeader{ShardCount: 1, TotalImages: len(c.Images)})
}

// decodeCorpus opens a one-shard corpus, walks every accessor and
// returns the encoder-side model it holds.
func decodeCorpus(t *testing.T, data []byte) (*Corpus, error) {
	t.Helper()
	s, err := OpenCorpusShardBytes(data)
	if err == nil {
		err = touchShard(s)
	}
	if err != nil {
		return nil, err
	}
	return shardToCorpus(t, s), nil
}

func TestCorpusRoundTrip(t *testing.T) {
	want := testCorpus()
	got, err := decodeCorpus(t, mustEncodeCorpus(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCorpusRoundTripEmptyIndex(t *testing.T) {
	// A present-but-empty index is distinct from no index at all: the
	// former means "indexed, nothing qualified", the latter "never
	// indexed". The flag byte must preserve the distinction.
	want := testCorpus()
	want.Images[0].Index = []IndexRow{}
	got, err := decodeCorpus(t, mustEncodeCorpus(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Images[0].Index == nil {
		t.Error("present-but-empty index decoded as nil")
	}
	if got.Images[1].Index != nil {
		t.Error("absent index decoded as present")
	}
}

func TestCorpusRoundTripEmpty(t *testing.T) {
	want := &Corpus{}
	got, err := decodeCorpus(t, mustEncodeCorpus(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Interner) != 0 || len(got.Images) != 0 {
		t.Errorf("empty corpus round trip: %+v", got)
	}
}

func TestCorpusEncodeRejectsInvalid(t *testing.T) {
	hdr := ShardHeader{ShardCount: 1, TotalImages: 2}
	// An ID outside the vocabulary must be rejected at encode time.
	c := testCorpus()
	c.Images[0].Exes[0].Procs[0].IDs = []uint32{99}
	if _, err := EncodeCorpusShard(c, hdr); err == nil {
		t.Error("out-of-vocabulary ID encoded successfully")
	}
	// An index posting pointing past the image's executables likewise.
	c = testCorpus()
	c.Images[0].Index[0].Posts[0].Exe = 9
	if _, err := EncodeCorpusShard(c, hdr); err == nil {
		t.Error("out-of-range index posting encoded successfully")
	}
}

// TestCorpusDecodeCorruption flips one bit in every byte the container
// covers — header, section table and every section payload, skipping
// only the zero padding between aligned sections — and requires the
// open-plus-walk sequence to fail wrapping ErrCorrupt.
func TestCorpusDecodeCorruption(t *testing.T) {
	blob := mustEncodeCorpus(t, testCorpus())
	table, err := parseCorpusV2Table(blob)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(blob))
	for off := 0; off < headerSize+len(table)*tableEntrySize; off++ {
		covered[off] = true
	}
	for _, e := range table {
		for off := e.off; off < e.off+e.length; off++ {
			covered[off] = true
		}
	}
	for off := range blob {
		if !covered[off] {
			continue
		}
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x01
		if _, err := decodeCorpus(t, bad); err == nil {
			t.Errorf("bit flip at offset %d decoded successfully", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at offset %d: error does not wrap ErrCorrupt: %v", off, err)
		}
	}
}

func TestCorpusDecodeTruncation(t *testing.T) {
	blob := mustEncodeCorpus(t, testCorpus())
	for n := 0; n < len(blob); n += 17 {
		if _, err := decodeCorpus(t, blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestCorpusRejectsImageSnapshot(t *testing.T) {
	// A per-image FWSNAP artifact must not open as a corpus shard
	// (different magic), and vice versa.
	img := testModel()
	blob, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpusShardBytes(blob); err == nil {
		t.Error("image snapshot opened as corpus shard")
	}
	if _, err := Decode(mustEncodeCorpus(t, testCorpus())); err == nil {
		t.Error("corpus shard decoded as image snapshot")
	}
}
