package fabric

import (
	"testing"
	"testing/quick"
)

// z7020 rebuilds the paper's ZedBoard geometry (the calibrated spec lives in
// internal/platform; these tests only need a representative tiled device).
func z7020() *Device {
	return NewDevice(Geometry{Name: "xc7z020", IDCode: 0x03727093, Rows: 3, Tiles: 6})
}

func TestZ7020Geometry(t *testing.T) {
	d := z7020()
	if len(d.Columns) != 80 {
		t.Fatalf("columns = %d, want 80", len(d.Columns))
	}
	if d.Columns[0] != IOB || d.Columns[79] != IOB {
		t.Error("edge columns must be IOB")
	}
	if d.FramesPerRow() != 2700 {
		t.Errorf("FramesPerRow = %d, want 2700", d.FramesPerRow())
	}
	if d.TotalFrames() != 8100 {
		t.Errorf("TotalFrames = %d, want 8100", d.TotalFrames())
	}
	if d.ConfigBytes() != 8100*101*4 {
		t.Errorf("ConfigBytes = %d", d.ConfigBytes())
	}
}

func TestColumnKindMinors(t *testing.T) {
	tests := []struct {
		k    ColumnKind
		want int
	}{
		{CLB, 36}, {BRAM, 28}, {DSP, 28}, {IOB, 42},
	}
	for _, tt := range tests {
		if got := tt.k.Minors(); got != tt.want {
			t.Errorf("%v.Minors() = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestStandardRPsAre1308Frames(t *testing.T) {
	// The RP size is load-bearing: 1308 frames ⇒ the 528,760-byte partial
	// bitstream implied by Table I.
	d := z7020()
	rps := TiledRPs(d.Geometry(), 3)
	if len(rps) != 4 {
		t.Fatalf("want 4 RPs, got %d", len(rps))
	}
	for _, rp := range rps {
		if err := d.Validate(rp); err != nil {
			t.Errorf("%s: %v", rp.Name, err)
		}
		if got := d.RegionFrames(rp); got != 1308 {
			t.Errorf("%s frames = %d, want 1308", rp.Name, got)
		}
	}
	// RPs must not overlap.
	for i, a := range rps {
		for _, b := range rps[i+1:] {
			if a.Row == b.Row && a.ColStart < b.ColEnd && b.ColStart < a.ColEnd {
				t.Errorf("%s and %s overlap", a.Name, b.Name)
			}
		}
	}
}

func TestFARRoundTrip(t *testing.T) {
	a := FrameAddr{Row: 2, Column: 57, Minor: 13}
	if got := DecodeFAR(a.FAR()); got != a {
		t.Errorf("round trip = %+v, want %+v", got, a)
	}
}

func TestLinearAddrRoundTripProperty(t *testing.T) {
	d := z7020()
	prop := func(raw uint16) bool {
		lin := int(raw) % d.TotalFrames()
		a, err := d.Addr(lin)
		if err != nil {
			return false
		}
		back, err := d.Linear(a)
		return err == nil && back == lin
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLinearRejectsOutOfRange(t *testing.T) {
	d := z7020()
	bad := []FrameAddr{
		{Row: 3, Column: 0, Minor: 0},
		{Row: 0, Column: 80, Minor: 0},
		{Row: 0, Column: 0, Minor: 42}, // IOB has 42 minors: 0..41
		{Row: -1, Column: 0, Minor: 0},
	}
	for _, a := range bad {
		if _, err := d.Linear(a); err == nil {
			t.Errorf("Linear(%+v) should fail", a)
		}
	}
	if _, err := d.Addr(-1); err == nil {
		t.Error("Addr(-1) should fail")
	}
	if _, err := d.Addr(d.TotalFrames()); err == nil {
		t.Error("Addr(end) should fail")
	}
}

func TestNextWalksWholeDevice(t *testing.T) {
	d := z7020()
	a := FrameAddr{}
	for i := 0; i < d.TotalFrames()-1; i++ {
		next, err := d.Next(a)
		if err != nil {
			t.Fatalf("Next at step %d: %v", i, err)
		}
		la, _ := d.Linear(a)
		ln, _ := d.Linear(next)
		if ln != la+1 {
			t.Fatalf("Next(%+v) = %+v: linear %d → %d", a, next, la, ln)
		}
		a = next
	}
	if _, err := d.Next(a); err == nil {
		t.Error("Next past device end should fail")
	}
}

func TestRegionContains(t *testing.T) {
	d := z7020()
	rp := TiledRPs(d.Geometry(), 3)[0]
	if !d.Contains(rp, FrameAddr{Row: 0, Column: 1, Minor: 0}) {
		t.Error("start frame should be contained")
	}
	if d.Contains(rp, FrameAddr{Row: 0, Column: 40, Minor: 0}) {
		t.Error("column 40 is outside RP1")
	}
	if d.Contains(rp, FrameAddr{Row: 1, Column: 5, Minor: 0}) {
		t.Error("other row should not be contained")
	}
}

func TestMemoryWriteReadFrame(t *testing.T) {
	d := z7020()
	m := NewMemory(d)
	a := FrameAddr{Row: 1, Column: 10, Minor: 3}
	frame := make([]uint32, FrameWords)
	for i := range frame {
		frame[i] = uint32(i * 7)
	}
	if err := m.WriteFrame(a, frame); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFrame(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		if got[i] != frame[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], frame[i])
		}
	}
	if m.Writes() != 1 || m.Reads() != 1 {
		t.Errorf("counters = %d/%d, want 1/1", m.Writes(), m.Reads())
	}
}

func TestMemoryRejectsBadFrame(t *testing.T) {
	d := z7020()
	m := NewMemory(d)
	if err := m.WriteFrame(FrameAddr{}, make([]uint32, 50)); err == nil {
		t.Error("short frame should fail")
	}
	if err := m.WriteFrame(FrameAddr{Row: 9}, make([]uint32, FrameWords)); err == nil {
		t.Error("bad address should fail")
	}
	if _, err := m.ReadFrame(FrameAddr{Row: 9}); err == nil {
		t.Error("bad read address should fail")
	}
}

func TestMemoryRegionEqual(t *testing.T) {
	d := z7020()
	m := NewMemory(d)
	rp := TiledRPs(d.Geometry(), 3)[1]
	n := d.RegionFrames(rp)
	frames := make([][]uint32, n)
	addr := rp.RegionStart()
	for i := 0; i < n; i++ {
		frames[i] = make([]uint32, FrameWords)
		frames[i][0] = uint32(i + 1)
		if err := m.WriteFrame(addr, frames[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			var err error
			addr, err = d.Next(addr)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	eq, err := m.RegionEqual(rp, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("region should match what was written")
	}
	// Corrupt one word and re-check.
	frames[n/2][50] ^= 1
	eq, err = m.RegionEqual(rp, frames)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("region should mismatch after corruption")
	}
}

func TestRegionFrameIndicesContiguous(t *testing.T) {
	d := z7020()
	m := NewMemory(d)
	for _, rp := range TiledRPs(d.Geometry(), 3) {
		idx, err := m.RegionFrameIndices(rp)
		if err != nil {
			t.Fatalf("%s: %v", rp.Name, err)
		}
		if len(idx) != 1308 {
			t.Fatalf("%s: %d indices", rp.Name, len(idx))
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] != idx[i-1]+1 {
				t.Fatalf("%s: indices not contiguous at %d", rp.Name, i)
			}
		}
	}
}

func TestValidateRejectsBadRegions(t *testing.T) {
	d := z7020()
	bad := []Region{
		{Name: "r", Row: 5, ColStart: 0, ColEnd: 1},
		{Name: "r", Row: 0, ColStart: 5, ColEnd: 5},
		{Name: "r", Row: 0, ColStart: 10, ColEnd: 5},
		{Name: "r", Row: 0, ColStart: 0, ColEnd: 99},
	}
	for _, r := range bad {
		if err := d.Validate(r); err == nil {
			t.Errorf("Validate(%+v) should fail", r)
		}
	}
}

func TestTiledRPsScaleWithGeometry(t *testing.T) {
	// A narrower part (2 rows × 4 tiles, 2-tile RPs) must yield one RP per
	// row plus one packed extra on row 0, each 2·436 = 872 frames.
	g := Geometry{Name: "xc7z010", IDCode: 0x03722093, Rows: 2, Tiles: 4}
	d := NewDevice(g)
	if d.Geometry() != g {
		t.Fatalf("Geometry() = %+v, built from %+v", d.Geometry(), g)
	}
	rps := TiledRPs(g, 2)
	if len(rps) != 3 {
		t.Fatalf("want 3 RPs, got %d", len(rps))
	}
	for i, rp := range rps {
		if want := "RP" + string(rune('1'+i)); rp.Name != want {
			t.Errorf("rp[%d].Name = %q, want %q", i, rp.Name, want)
		}
		if err := d.Validate(rp); err != nil {
			t.Errorf("%s: %v", rp.Name, err)
		}
		if got := d.RegionFrames(rp); got != 872 {
			t.Errorf("%s frames = %d, want 872", rp.Name, got)
		}
	}
	if rps[2].Row != 0 || rps[2].ColStart != 1+2*TileColumns {
		t.Errorf("extra RP misplaced: %+v", rps[2])
	}
}
