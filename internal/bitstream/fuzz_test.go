package bitstream

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/platform"
)

// compressed assembles a compressed stream by hand: the magic, a claimed
// decompressed length and raw record words.
func compressed(origLen uint32, records ...uint32) []byte {
	out := append([]byte(compressMagic), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(out[8:], origLen)
	for _, r := range records {
		out = binary.BigEndian.AppendUint32(out, r)
	}
	return out
}

func TestDecompressDoesNotTrustClaimedLength(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"12 bytes claiming 64 MiB", compressed(64 << 20)},
		{"a zero run claiming 64 MiB, then nothing", compressed(64<<20, 16<<20-1, 0)},
		{"12 bytes claiming 4 GiB", compressed(1<<32 - 4)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decompress(c.in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decompressed without error", c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%s: allocated %d bytes before failing, want < 4 KiB", c.name, got)
		}
	}
}

// fuzzDevice and fuzzImage build small images for the fuzz targets: one
// column of the default device, frames filled from the input bytes.
var fuzzDevice = platform.Default().NewDevice()

func fuzzImage(data []byte, name string, col uint8) (*Bitstream, error) {
	d := fuzzDevice
	r := fabric.Region{Name: "fuzz", ColStart: 1 + int(col)%(len(d.Columns)-1)}
	r.ColEnd = r.ColStart + 1
	frames := make([][]uint32, d.RegionFrames(r))
	for i := range frames {
		frames[i] = make([]uint32, fabric.FrameWords)
		for w := range frames[i] {
			if len(data) > 0 {
				frames[i][w] = uint32(data[(i*fabric.FrameWords+w)%len(data)]) << (8 * (w % 4))
			}
		}
	}
	return Build(d, r, name, frames)
}

// FuzzDecompress: no input panics or allocates beyond the bound; a stream
// that decodes re-encodes to one decoding to the same bytes; and every
// word-aligned input survives Compress then Decompress unchanged.
func FuzzDecompress(f *testing.F) {
	img, err := fuzzImage([]byte{0, 0, 7, 0, 0, 0, 9}, "seed", 3)
	if err != nil {
		f.Fatal(err)
	}
	comp, err := Compress(img.Encode())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp)
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := Decompress(data); err == nil {
			again, err := Compress(out)
			if err != nil {
				t.Fatalf("Compress of a decoded image: %v", err)
			}
			if back, err := Decompress(again); err != nil || !bytes.Equal(back, out) {
				t.Fatalf("re-encoded image does not decode back (err %v)", err)
			}
		}
		x := data[:len(data)&^3]
		c, err := Compress(x)
		if err != nil {
			t.Fatalf("Compress of %d word-aligned bytes: %v", len(x), err)
		}
		if back, err := Decompress(c); err != nil || !bytes.Equal(back, x) {
			t.Fatalf("Decompress(Compress(x)) != x (err %v)", err)
		}
	})
}

// FuzzParseHeader: no input panics, a header ParseHeader accepts agrees
// with the input's length, and every image Build accepts parses back from
// its encoding to its own header.
func FuzzParseHeader(f *testing.F) {
	img, err := fuzzImage([]byte{1, 2, 3}, "fir128", 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Encode(), "fir128", uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, name string, col uint8) {
		if h, err := ParseHeader(data); err == nil && len(data) != HeaderBytes+4*h.DataWords {
			t.Fatalf("accepted %d bytes for %d data words", len(data), h.DataWords)
		}
		img, err := fuzzImage(data, name, col)
		if err != nil {
			return // a name Build rejects
		}
		if h, err := ParseHeader(img.Encode()); err != nil || h != img.Header {
			t.Fatalf("ParseHeader(Encode()) = %+v, %v; want %+v", h, err, img.Header)
		}
	})
}
