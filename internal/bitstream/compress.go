package bitstream

import (
	"encoding/binary"
	"fmt"
)

// Compression format (Sec. VI "Bitstream Decompressor" input): partial
// bitstreams are dominated by zero words (unused LUTs/routing), so a
// word-oriented run-length encoding captures most of the win of the
// vendor's multi-frame-write compression while staying trivially
// implementable in the PR controller's decompressor block.
//
// Layout (all big-endian):
//
//	magic   "ZPDRCMPR" (8 bytes)
//	origLen uint32     (decompressed byte length; multiple of 4)
//	records: repeated { zeroRun uint32; litCount uint32; literals … }
//
// zeroRun says how many zero words to emit, litCount how many literal words
// follow inline. The stream ends when origLen words have been produced.

const compressMagic = "ZPDRCMPR"

// Compress run-length encodes a word-aligned image (typically
// Bitstream.Encode()). It returns an error for images whose length is not a
// multiple of 4.
func Compress(raw []byte) ([]byte, error) {
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("bitstream: compress input %d bytes not word-aligned", len(raw))
	}
	words := len(raw) / 4
	out := make([]byte, 0, len(raw)/2+16)
	out = append(out, compressMagic...)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(raw)))
	out = append(out, lenBuf[:]...)

	isZero := func(i int) bool {
		return raw[i*4] == 0 && raw[i*4+1] == 0 && raw[i*4+2] == 0 && raw[i*4+3] == 0
	}
	i := 0
	for i < words {
		zs := i
		for i < words && isZero(i) {
			i++
		}
		zeroRun := i - zs
		ls := i
		// A literal run ends at the next run of ≥2 zeros (a single zero is
		// cheaper inline than a new record).
		for i < words {
			if isZero(i) && (i+1 >= words || isZero(i+1)) {
				break
			}
			i++
		}
		litCount := i - ls
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(zeroRun))
		binary.BigEndian.PutUint32(hdr[4:8], uint32(litCount))
		out = append(out, hdr[:]...)
		out = append(out, raw[ls*4:i*4]...)
	}
	return out, nil
}

// maxImageBytes bounds a decompressed image. It is above any 7-series
// configuration image (the largest, the XC7V2000T's full bitstream, is
// ≈ 56 MB), so it only turns away streams that could not be bitstreams,
// such as a few bytes of zero runs claiming gigabytes.
const maxImageBytes = 64 << 20

// Decompress inverts Compress. The header's length is not trusted: every
// record is checked first, and the output is allocated only once the whole
// stream has proved to decode to exactly that length.
func Decompress(comp []byte) ([]byte, error) {
	if len(comp) < 12 || string(comp[:8]) != compressMagic {
		return nil, fmt.Errorf("bitstream: not a compressed image")
	}
	origLen := int(binary.BigEndian.Uint32(comp[8:12]))
	if origLen%4 != 0 || origLen > maxImageBytes {
		return nil, fmt.Errorf("bitstream: corrupt length %d", origLen)
	}
	// Pass 1: validate the records without writing anything.
	n, p := 0, 12
	for n < origLen {
		if p+8 > len(comp) {
			return nil, fmt.Errorf("bitstream: truncated record at offset %d", p)
		}
		zeroRun := int(binary.BigEndian.Uint32(comp[p : p+4]))
		litCount := int(binary.BigEndian.Uint32(comp[p+4 : p+8]))
		p += 8
		if zeroRun > (origLen-n)/4 {
			return nil, fmt.Errorf("bitstream: zero run %d overflows output", zeroRun)
		}
		n += zeroRun * 4
		if p+litCount*4 > len(comp) {
			return nil, fmt.Errorf("bitstream: literal run %d overflows input", litCount)
		}
		if litCount*4 > origLen-n {
			return nil, fmt.Errorf("bitstream: literal run %d overflows output", litCount)
		}
		n += litCount * 4
		p += litCount * 4
	}
	if p != len(comp) {
		return nil, fmt.Errorf("bitstream: %d trailing bytes after records", len(comp)-p)
	}
	// Pass 2: the records are sound; copy the literals into a zeroed
	// output, which already holds every zero run.
	out := make([]byte, origLen)
	n, p = 0, 12
	for n < origLen {
		n += 4 * int(binary.BigEndian.Uint32(comp[p:p+4]))
		lit := 4 * int(binary.BigEndian.Uint32(comp[p+4:p+8]))
		p += 8
		n += copy(out[n:], comp[p:p+lit])
		p += lit
	}
	return out, nil
}

// CompressionRatio returns original/compressed size.
func CompressionRatio(orig, comp []byte) float64 {
	if len(comp) == 0 {
		return 0
	}
	return float64(len(orig)) / float64(len(comp))
}
