package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/platform"
)

// standardImage builds the standard image, fir128 on RP1, for a board.
func standardImage(t *testing.T, board string) *bitstream.Bitstream {
	t.Helper()
	prof, ok := platform.Lookup(board)
	if !ok {
		t.Fatalf("%s not registered", board)
	}
	asp, err := LibraryASP("fir128")
	if err != nil {
		t.Fatal(err)
	}
	dev := prof.NewDevice()
	bs, err := asp.Bitstream(dev, prof.RPs(dev)[0])
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestStandardImagePinned pins the image's representation to its bytes:
// the encoded file of the standard image hashes to the committed SHA-256
// on the ZedBoard and the ZC706, and the header and both checksums keep
// their values. The hashes were taken when an image still stored its file
// bytes, so any change to the words, the header or the encoding shows here.
func TestStandardImagePinned(t *testing.T) {
	for _, c := range []struct {
		board, part, sha256 string
		fileCRC             uint32
	}{
		{"zedboard", "xc7z020", "848d4421b1d420708291652cfca64684f7197a484d2c61d68036b7aa811df94d", 3601718250},
		{"zc706", "xc7z045", "f9624fe8bf7edb1347f2c391143664441972a144ba179284044d4a718ddddcab", 1343803605},
	} {
		bs := standardImage(t, c.board)
		sum := sha256.Sum256(bs.Encode())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s: Encode() SHA-256 %s, want %s", c.board, got, c.sha256)
		}
		want := bitstream.FileHeader{Name: "fir128", Part: c.part, DataWords: 132178, Frames: 1308, FileCRC: c.fileCRC}
		if bs.Header != want {
			t.Errorf("%s: header %+v, want %+v", c.board, bs.Header, want)
		}
		if bs.ConfigCRC != 0x39d97aee || bs.FrameCRC() != 0xfc83e7e3 {
			t.Errorf("%s: ConfigCRC %#08x FrameCRC %#08x, want 0x39d97aee 0xfc83e7e3", c.board, bs.ConfigCRC, bs.FrameCRC())
		}
		if bs.Size() != 528760 {
			t.Errorf("%s: Size() %d, want 528760", c.board, bs.Size())
		}
	}
}

// TestBitstreamAllocs bounds one ASP.Bitstream at 8 heap objects: the
// frames' backing array and index, the image's words and frame views, the
// two CRC packers and the image itself, with one to spare. Storing each
// frame separately costs 1308 more.
func TestBitstreamAllocs(t *testing.T) {
	prof := platform.Default()
	dev := prof.NewDevice()
	rp := prof.RPs(dev)[0]
	asp, err := LibraryASP("fir128")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := asp.Bitstream(dev, rp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("ASP.Bitstream makes %.0f allocations, want ≤ 8", allocs)
	}
}
