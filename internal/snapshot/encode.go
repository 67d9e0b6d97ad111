package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Encode serializes an image model into the snapshot container. It
// validates the model's internal references (sorted ID runs, in-range
// calls and postings) so that a successful Encode always produces a
// snapshot Decode accepts.
func Encode(img *Image) ([]byte, error) {
	if err := validate(img); err != nil {
		return nil, err
	}
	type section struct {
		tag     uint32
		payload []byte
	}
	sections := []section{
		{secMeta, encodeMeta(img)},
		{secInterner, encodeInterner(img)},
		{secExes, encodeExes(img.Exes)},
	}
	if img.Index != nil {
		sections = append(sections, section{secIndex, encodeIndex(img.Index)})
	}

	out := make([]byte, 0, headerSize+len(sections)*tableEntrySize+payloadLen(sections, func(s section) int { return len(s.payload) }))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	off := uint64(headerSize + len(sections)*tableEntrySize)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.tag)
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		off += uint64(len(s.payload))
	}
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out, nil
}

func payloadLen[T any](xs []T, f func(T) int) int {
	n := 0
	for _, x := range xs {
		n += f(x)
	}
	return n
}

// validate checks the model invariants Decode will enforce, so an
// invalid model fails at save time instead of producing an unreadable
// snapshot.
func validate(img *Image) error {
	if err := validateExes(len(img.Interner), img.Exes); err != nil {
		return err
	}
	if err := validateIndex(len(img.Interner), img.Exes, img.Index); err != nil {
		return err
	}
	if len(img.Interner) > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: vocabulary of %d exceeds the dense-ID space", len(img.Interner))
	}
	return nil
}

func validateExes(vocab int, exes []Exe) error {
	for ei, e := range exes {
		for pi, p := range e.Procs {
			for k, id := range p.IDs {
				if k > 0 && id <= p.IDs[k-1] {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: strand IDs not strictly increasing", ei, pi)
				}
				if int(id) >= vocab {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: strand ID %d outside vocabulary of %d", ei, pi, id, vocab)
				}
			}
			for _, c := range p.Calls {
				if c < 0 || int(c) >= len(e.Procs) {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: call target %d out of range", ei, pi, c)
				}
			}
			if p.BlockCount < 0 || p.EdgeCount < 0 || p.InstCount < 0 {
				return fmt.Errorf("snapshot: encode: exe %d proc %d: negative shape counts", ei, pi)
			}
		}
	}
	return nil
}

func validateIndex(vocab int, exes []Exe, rows []IndexRow) error {
	for ri, r := range rows {
		if ri > 0 && r.ID <= rows[ri-1].ID {
			return fmt.Errorf("snapshot: encode: index rows not strictly increasing at row %d", ri)
		}
		if int(r.ID) >= vocab {
			return fmt.Errorf("snapshot: encode: index row %d: strand ID %d outside vocabulary", ri, r.ID)
		}
		for _, p := range r.Posts {
			if p.Exe < 0 || int(p.Exe) >= len(exes) {
				return fmt.Errorf("snapshot: encode: index row %d: posting exe %d out of range", ri, p.Exe)
			}
			if p.Proc < 0 || int(p.Proc) >= len(exes[p.Exe].Procs) {
				return fmt.Errorf("snapshot: encode: index row %d: posting proc %d out of range", ri, p.Proc)
			}
		}
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func encodeMeta(img *Image) []byte {
	var b []byte
	b = appendString(b, img.Vendor)
	b = appendString(b, img.Device)
	b = appendString(b, img.Version)
	b = appendUvarint(b, uint64(len(img.Skipped)))
	for _, s := range img.Skipped {
		b = appendString(b, s.Path)
		b = appendString(b, s.Err)
	}
	return b
}

func encodeInterner(img *Image) []byte {
	b := make([]byte, 0, binary.MaxVarintLen64+8*len(img.Interner))
	b = appendUvarint(b, uint64(len(img.Interner)))
	for _, h := range img.Interner {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	return b
}

func encodeExes(exes []Exe) []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(exes)))
	for _, e := range exes {
		b = appendString(b, e.Path)
		b = append(b, e.Arch)
		if e.Stripped {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendUvarint(b, uint64(len(e.Procs)))
		for _, p := range e.Procs {
			b = appendString(b, p.Name)
			b = binary.LittleEndian.AppendUint32(b, p.Addr)
			if p.Exported {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			// Strictly increasing IDs, delta-encoded: first value raw,
			// then gaps (always >= 1).
			b = appendUvarint(b, uint64(len(p.IDs)))
			prev := uint32(0)
			for k, id := range p.IDs {
				if k == 0 {
					b = appendUvarint(b, uint64(id))
				} else {
					b = appendUvarint(b, uint64(id-prev))
				}
				prev = id
			}
			b = appendUvarint(b, uint64(len(p.Markers)))
			for _, m := range p.Markers {
				b = appendUvarint(b, uint64(m))
			}
			b = appendUvarint(b, uint64(p.BlockCount))
			b = appendUvarint(b, uint64(p.EdgeCount))
			b = appendUvarint(b, uint64(p.InstCount))
			b = appendUvarint(b, uint64(len(p.Calls)))
			for _, c := range p.Calls {
				b = appendUvarint(b, uint64(c))
			}
		}
	}
	return b
}

func encodeIndex(rows []IndexRow) []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(rows)))
	prev := uint32(0)
	for ri, r := range rows {
		if ri == 0 {
			b = appendUvarint(b, uint64(r.ID))
		} else {
			b = appendUvarint(b, uint64(r.ID-prev))
		}
		prev = r.ID
		b = appendUvarint(b, uint64(len(r.Posts)))
		for _, p := range r.Posts {
			b = appendUvarint(b, uint64(p.Exe))
			b = appendUvarint(b, uint64(p.Proc))
		}
	}
	return b
}
