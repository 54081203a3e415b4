// Package fabric models the programmable-logic configuration plane of a
// 7-series-class device (the Zynq-7020's Artix-7 fabric): the frame-oriented
// configuration memory, frame addressing (FAR), reconfigurable-partition
// regions, and frame read-back. This is the substrate the ICAP writes and
// the CRC monitor reads.
package fabric

import (
	"fmt"
)

// FrameWords is the size of one configuration frame in 32-bit words
// (101 on all 7-series devices).
const FrameWords = 101

// ColumnKind categorises a fabric column by its resource type, which
// determines how many minor frames configure it.
type ColumnKind int

const (
	// CLB columns (logic slices): 36 minor frames.
	CLB ColumnKind = iota + 1
	// BRAM interconnect columns: 28 minor frames.
	BRAM
	// DSP columns: 28 minor frames.
	DSP
	// IOB/clocking columns: 42 minor frames.
	IOB
)

// Minors returns the number of minor frames for the column kind.
func (k ColumnKind) Minors() int {
	switch k {
	case CLB:
		return 36
	case BRAM, DSP:
		return 28
	case IOB:
		return 42
	default:
		panic(fmt.Sprintf("fabric: unknown column kind %d", int(k)))
	}
}

// String names the kind.
func (k ColumnKind) String() string {
	switch k {
	case CLB:
		return "CLB"
	case BRAM:
		return "BRAM"
	case DSP:
		return "DSP"
	case IOB:
		return "IOB"
	default:
		return fmt.Sprintf("ColumnKind(%d)", int(k))
	}
}

// Device describes the configuration geometry: clock-region rows, each with
// the same column layout.
type Device struct {
	// Name is the part name, e.g. "xc7z020".
	Name string
	// IDCode is the JTAG/configuration ID checked by the bitstream loader.
	IDCode uint32
	// Rows is the number of clock-region rows.
	Rows int
	// Columns is the per-row column layout.
	Columns []ColumnKind

	// frameBase[c] is the first frame index (within a row) of column c.
	frameBase []int
	// framesPerRow caches the row frame count.
	framesPerRow int
	// addrOf[linear] inverts Linear in O(1); the FAR auto-increment walks
	// it once per frame written or read back.
	addrOf []FrameAddr
}

// Geometry parameterises a 7-series-style device: clock-region rows, each
// holding Tiles repetitions of the standard 13-column tile (9 CLB + 2 BRAM +
// 2 DSP) between an IOB column at each edge. Which part has how many rows
// and tiles is calibration and lives in internal/platform; this package only
// knows how to build the frame plane from a geometry.
type Geometry struct {
	// Name is the part name, e.g. "xc7z020".
	Name string
	// IDCode is the JTAG/configuration ID checked by the bitstream loader.
	IDCode uint32
	// Rows is the number of clock-region rows.
	Rows int
	// Tiles is the number of 13-column CLB/BRAM/DSP tiles per row.
	Tiles int
}

// TileColumns is the width of one standard CLB/BRAM/DSP tile.
const TileColumns = 13

// NewDevice builds a device from its geometry. Within each tile, columns
// 3 and 9 are BRAM, 6 and 12 are DSP, the rest CLB — one tile is
// 9·36 + 2·28 + 2·28 = 436 frames.
func NewDevice(g Geometry) *Device {
	if g.Rows < 1 || g.Tiles < 1 {
		panic(fmt.Sprintf("fabric: degenerate geometry %+v", g))
	}
	cols := make([]ColumnKind, 0, g.Tiles*TileColumns+2)
	cols = append(cols, IOB)
	for i := 0; i < g.Tiles*TileColumns; i++ {
		switch i % TileColumns {
		case 3, 9:
			cols = append(cols, BRAM)
		case 6, 12:
			cols = append(cols, DSP)
		default:
			cols = append(cols, CLB)
		}
	}
	cols = append(cols, IOB)
	d := &Device{
		Name:    g.Name,
		IDCode:  g.IDCode,
		Rows:    g.Rows,
		Columns: cols,
	}
	d.index()
	return d
}

// index precomputes per-column frame offsets and the linear→address table.
func (d *Device) index() {
	d.frameBase = make([]int, len(d.Columns)+1)
	sum := 0
	for i, k := range d.Columns {
		d.frameBase[i] = sum
		sum += k.Minors()
	}
	d.frameBase[len(d.Columns)] = sum
	d.framesPerRow = sum

	d.addrOf = make([]FrameAddr, d.Rows*sum)
	i := 0
	for row := 0; row < d.Rows; row++ {
		for c, k := range d.Columns {
			for minor := 0; minor < k.Minors(); minor++ {
				d.addrOf[i] = FrameAddr{Row: row, Column: c, Minor: minor}
				i++
			}
		}
	}
}

// Geometry returns the geometry the device was built from (NewDevice lays
// out Tiles tiles between the two IOB columns).
func (d *Device) Geometry() Geometry {
	return Geometry{Name: d.Name, IDCode: d.IDCode, Rows: d.Rows, Tiles: (len(d.Columns) - 2) / TileColumns}
}

// FramesPerRow returns the number of frames configuring one row.
func (d *Device) FramesPerRow() int { return d.framesPerRow }

// TotalFrames returns the number of frames on the device.
func (d *Device) TotalFrames() int { return d.framesPerRow * d.Rows }

// ConfigBytes returns the raw size of the full configuration data.
func (d *Device) ConfigBytes() int { return d.TotalFrames() * FrameWords * 4 }

// FrameAddr is the decomposed frame address (the FAR register fields).
type FrameAddr struct {
	Row    int
	Column int
	Minor  int
}

// FAR packs the address into the register encoding used by our bitstreams:
// [23:16] row, [15:8] column, [7:0] minor.
func (a FrameAddr) FAR() uint32 {
	return uint32(a.Row)<<16 | uint32(a.Column)<<8 | uint32(a.Minor)
}

// DecodeFAR unpacks a FAR register value.
func DecodeFAR(v uint32) FrameAddr {
	return FrameAddr{
		Row:    int(v >> 16 & 0xFF),
		Column: int(v >> 8 & 0xFF),
		Minor:  int(v & 0xFF),
	}
}

// Linear returns the flat frame index for an address, or an error for
// out-of-range fields.
func (d *Device) Linear(a FrameAddr) (int, error) {
	if a.Row < 0 || a.Row >= d.Rows {
		return 0, fmt.Errorf("fabric: row %d out of range [0,%d)", a.Row, d.Rows)
	}
	if a.Column < 0 || a.Column >= len(d.Columns) {
		return 0, fmt.Errorf("fabric: column %d out of range [0,%d)", a.Column, len(d.Columns))
	}
	if a.Minor < 0 || a.Minor >= d.Columns[a.Column].Minors() {
		return 0, fmt.Errorf("fabric: minor %d out of range for %v column", a.Minor, d.Columns[a.Column])
	}
	return a.Row*d.framesPerRow + d.frameBase[a.Column] + a.Minor, nil
}

// Addr inverts Linear via the precomputed table.
func (d *Device) Addr(linear int) (FrameAddr, error) {
	if linear < 0 || linear >= len(d.addrOf) {
		return FrameAddr{}, fmt.Errorf("fabric: frame %d out of range [0,%d)", linear, d.TotalFrames())
	}
	return d.addrOf[linear], nil
}

// Next returns the address of the frame after a in configuration order
// (minor, then column, then row), mirroring the hardware FAR auto-increment.
func (d *Device) Next(a FrameAddr) (FrameAddr, error) {
	lin, err := d.Linear(a)
	if err != nil {
		return FrameAddr{}, err
	}
	if lin+1 >= d.TotalFrames() {
		return FrameAddr{}, fmt.Errorf("fabric: FAR increment past end of device")
	}
	return d.Addr(lin + 1)
}

// Region is a rectangular reconfigurable partition: a contiguous span of
// columns within one clock-region row, the granularity 7-series partial
// reconfiguration actually supports.
type Region struct {
	Name     string
	Row      int
	ColStart int // inclusive
	ColEnd   int // exclusive
}

// Frames returns the number of frames configuring the region.
func (d *Device) RegionFrames(r Region) int {
	n := 0
	for c := r.ColStart; c < r.ColEnd; c++ {
		n += d.Columns[c].Minors()
	}
	return n
}

// RegionStart returns the first frame address of the region.
func (r Region) RegionStart() FrameAddr {
	return FrameAddr{Row: r.Row, Column: r.ColStart, Minor: 0}
}

// Validate checks the region against the device geometry.
func (d *Device) Validate(r Region) error {
	if r.Row < 0 || r.Row >= d.Rows {
		return fmt.Errorf("fabric: region %q row %d out of range", r.Name, r.Row)
	}
	if r.ColStart < 0 || r.ColEnd > len(d.Columns) || r.ColStart >= r.ColEnd {
		return fmt.Errorf("fabric: region %q columns [%d,%d) invalid", r.Name, r.ColStart, r.ColEnd)
	}
	return nil
}

// Contains reports whether the frame address lies inside the region.
func (d *Device) Contains(r Region, a FrameAddr) bool {
	return a.Row == r.Row && a.Column >= r.ColStart && a.Column < r.ColEnd
}

// TiledRPs returns the standard reconfigurable-partition plan for a tiled
// device: one RP of rpTiles tiles at the left edge of every clock-region
// row, then further RPs packed left-to-right along row 0 while whole spans
// still fit before the right IOB column. Partitions are named RP1, RP2, …
// in that order. On the paper's ZedBoard geometry (3 rows × 6 tiles,
// rpTiles = 3) this yields the four RPs of Fig. 1, each spanning 39 columns
// — 27 CLB, 6 BRAM and 6 DSP — for exactly 1308 frames, which together with
// the command overhead makes the 528,760-byte partial bitstream implied by
// Table I (see DESIGN.md §2). Tests assert the frame count. The plan needs
// only the geometry, so no frame plane is built to compute it.
func TiledRPs(g Geometry, rpTiles int) []Region {
	width := rpTiles * TileColumns
	columns := g.Tiles*TileColumns + 2
	if rpTiles < 1 || width > columns-2 {
		panic(fmt.Sprintf("fabric: RP span of %d tiles does not fit device %s", rpTiles, g.Name))
	}
	var rps []Region
	name := func() string { return fmt.Sprintf("RP%d", len(rps)+1) }
	for row := 0; row < g.Rows; row++ {
		rps = append(rps, Region{Name: name(), Row: row, ColStart: 1, ColEnd: 1 + width})
	}
	for start := 1 + width; start+width <= columns-1; start += width {
		rps = append(rps, Region{Name: name(), Row: 0, ColStart: start, ColEnd: start + width})
	}
	return rps
}
