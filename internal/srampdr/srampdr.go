// Package srampdr implements the paper's proposed next-generation partial
// reconfiguration environment (Sec. VI, Fig. 7): partial bitstreams are
// pre-loaded into an external QDR-II+ SRAM (Cypress CY7C2263KV18-class:
// 36-bit DDR read and write ports at 550 MHz, 0.45 ns access) so the ICAP
// transfer no longer crosses the Memory-Port → AXI-Interconnect → AXI-DMA
// bottleneck. A dedicated memory controller generates addresses, a PR
// controller arbitrates SRAM↔ICAP and watches the ICAP interrupts, an
// optional bitstream decompressor expands RLE images on the fly, and a
// PS-side scheduler pre-loads the next bitstream while the current
// accelerator computes.
//
// The paper gives the design a theoretical throughput of
// 550 MHz · 36 bit / 2 = 1237.5 MB/s; this implementation reproduces that
// number as its sustained SRAM read rate and measures what the full
// pipeline achieves end to end.
package srampdr

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/timing"
)

// SRAM models the QDR-II+ device: independent read and write ports at a
// fixed byte rate, holding one bitstream image at a time (the paper's
// stated capacity policy).
type SRAM struct {
	// ReadBytesPerSec / WriteBytesPerSec are the port rates (1237.5 MB/s
	// for the paper's part and bus width).
	ReadBytesPerSec  float64
	WriteBytesPerSec float64
	// CapacityBytes is the device size (72 Mbit ⇒ 9 MB).
	CapacityBytes int

	resident     string
	residentSize int
}

// NewSRAM returns the CY7C2263KV18-class part (rates and capacity come from
// the Sec.-VI calibration in internal/platform).
func NewSRAM() *SRAM {
	p := platform.SecVISRAM()
	return &SRAM{
		ReadBytesPerSec:  p.ReadBytesPerSec,
		WriteBytesPerSec: p.WriteBytesPerSec,
		CapacityBytes:    p.CapacityBytes,
	}
}

// Resident returns the name of the stored image ("" when empty).
func (s *SRAM) Resident() string { return s.resident }

// Preloaded reports the result of one scheduler pre-load.
type Preloaded struct {
	Name  string
	Bytes int
	// Compressed reports whether the stored image is RLE-compressed.
	Compressed bool
	At         sim.Time
}

// System is the assembled Fig.-7 pipeline. It shares the fabric
// configuration memory and DDR controller with the rest of the platform but
// brings its own hard-macro-class ICAP (timing-closed to 550 MHz, following
// HKT-2011) on a dedicated clock domain.
type System struct {
	kernel *sim.Kernel
	dev    *fabric.Device
	ddr    *dram.Controller
	ddrID  int
	sram   *SRAM
	domain *clock.Domain
	port   *icap.Port

	// store holds the images the scheduler can pre-load, keyed by name.
	store map[string]storedImage

	preloading bool
	busy       bool

	preloads  int
	reconfigs int
}

type storedImage struct {
	bs         *bitstream.Bitstream
	raw        []byte // compressed or raw image as stored in DRAM
	compressed bool
}

// Config for the system.
type Config struct {
	Kernel *sim.Kernel
	Device *fabric.Device
	Memory *fabric.Memory
	DDR    *dram.Controller
	// TempC supplies die temperature (nil ⇒ 40 °C).
	TempC func() float64
	Seed  uint64
}

// hmTimingModel returns the enhanced-hard-macro timing budget from the
// Sec.-VI calibration in internal/platform.
func hmTimingModel() *timing.Model {
	m := platform.SecVIHMTiming()
	return &m
}

// New assembles the system.
func New(cfg Config) (*System, error) {
	if cfg.Kernel == nil || cfg.Device == nil || cfg.Memory == nil || cfg.DDR == nil {
		return nil, fmt.Errorf("srampdr: missing dependency")
	}
	domain := clock.NewDomain("hm-icap", platform.SecVIICAPClockMHz*sim.MHz)
	port := icap.New(icap.Config{
		Kernel: cfg.Kernel,
		Domain: domain,
		Memory: cfg.Memory,
		Timing: hmTimingModel(),
		TempC:  cfg.TempC,
		Seed:   cfg.Seed ^ 0x5AA5,
	})
	return &System{
		kernel: cfg.Kernel,
		dev:    cfg.Device,
		ddr:    cfg.DDR,
		ddrID:  cfg.DDR.RegisterMaster(),
		sram:   NewSRAM(),
		domain: domain,
		port:   port,
		store:  make(map[string]storedImage),
	}, nil
}

// SRAMDevice exposes the SRAM model (for inspection and tests).
func (s *System) SRAMDevice() *SRAM { return s.sram }

// Port exposes the hard-macro ICAP.
func (s *System) Port() *icap.Port { return s.port }

// Stats returns pre-load and reconfiguration counters.
func (s *System) Stats() (preloads, reconfigs int) { return s.preloads, s.reconfigs }

// Register makes a bitstream available to the scheduler, optionally stored
// compressed in DRAM (and therefore streamed through the decompressor).
// Only the configuration payload is stored — the file header is metadata
// the scheduler keeps in DRAM.
func (s *System) Register(bs *bitstream.Bitstream, compressed bool) error {
	raw := bs.Encode()[bitstream.HeaderBytes:]
	if compressed {
		c, err := bitstream.Compress(raw)
		if err != nil {
			return fmt.Errorf("srampdr: %w", err)
		}
		raw = c
	}
	if len(raw) > s.sram.CapacityBytes {
		return fmt.Errorf("srampdr: image %q (%d bytes) exceeds SRAM capacity", bs.Header.Name, len(raw))
	}
	s.store[bs.Header.Name] = storedImage{bs: bs, raw: raw, compressed: compressed}
	return nil
}

// Preload copies the named image from DRAM into the SRAM (the PS scheduler
// does this while the current accelerator is computing). done receives the
// completion record.
func (s *System) Preload(name string, done func(Preloaded)) error {
	img, ok := s.store[name]
	if !ok {
		return fmt.Errorf("srampdr: unknown image %q", name)
	}
	if s.preloading {
		return fmt.Errorf("srampdr: preload already in progress")
	}
	s.preloading = true
	// The copy is double-buffered: while one 512-byte chunk is written to
	// the SRAM, the next is already being read from DDR, so the copy runs
	// at the DDR's effective rate with one trailing write.
	const chunk = 512
	remaining := len(img.raw)
	lastWrite := 0
	var step func()
	step = func() {
		if remaining <= 0 {
			s.kernel.Schedule(sim.FromSeconds(float64(lastWrite)/s.sram.WriteBytesPerSec), func() {
				s.preloading = false
				s.sram.resident = name
				s.sram.residentSize = len(img.raw)
				s.preloads++
				if done != nil {
					done(Preloaded{Name: name, Bytes: len(img.raw), Compressed: img.compressed, At: s.kernel.Now()})
				}
			})
			return
		}
		n := chunk
		if n > remaining {
			n = remaining
		}
		remaining -= n
		lastWrite = n
		s.ddr.Request(s.ddrID, n, step)
	}
	step()
	return nil
}

// ReconfigResult describes one Fig.-7 reconfiguration.
type ReconfigResult struct {
	Name string
	// BytesFromSRAM is what the SRAM actually supplied (compressed size
	// when the decompressor is in the path).
	BytesFromSRAM int
	// BitstreamBytes is the expanded image size.
	BitstreamBytes int
	// LatencyUS is SRAM-to-configuration-memory time.
	LatencyUS float64
	// ThroughputMBs is BitstreamBytes / latency — directly comparable to
	// Table I.
	ThroughputMBs float64
	// CRCValid is the embedded-CRC verdict from the ICAP parse.
	CRCValid bool
}

// Reconfigure streams the SRAM-resident image into the configuration
// memory. The PR controller reads the SRAM at its port rate; if the image
// is compressed, the decompressor expands it on the fly (zero runs cost no
// SRAM bandwidth, so compression shortens the transfer).
func (s *System) Reconfigure(done func(ReconfigResult)) error {
	name := s.sram.resident
	if name == "" {
		return fmt.Errorf("srampdr: no image pre-loaded in SRAM")
	}
	img, ok := s.store[name]
	if !ok {
		return fmt.Errorf("srampdr: resident image %q vanished from store", name)
	}
	if s.busy {
		return fmt.Errorf("srampdr: reconfiguration in progress")
	}
	s.busy = true
	start := s.kernel.Now()
	s.port.Reset()

	words := img.bs.Words()
	finish := func() {
		s.busy = false
		s.reconfigs++
		lat := s.kernel.Now().Sub(start).Microseconds()
		st := s.port.Status()
		if done != nil {
			done(ReconfigResult{
				Name:           name,
				BytesFromSRAM:  len(img.raw),
				BitstreamBytes: img.bs.Size(),
				LatencyUS:      lat,
				ThroughputMBs:  float64(img.bs.Size()) / lat,
				CRCValid:       st.Done && !st.CRCError && !st.SyncError,
			})
		}
	}

	if !img.compressed {
		s.streamRaw(words, finish)
		return nil
	}
	s.streamCompressed(img, words, finish)
	return nil
}

// prBufferWords is the PR controller's staging buffer between the SRAM read
// path and the ICAP: reads stall when this much data is already queued.
const prBufferWords = 256

// throttle delays fn until the ICAP backlog fits the PR buffer.
func (s *System) throttle(fn func()) bool {
	bufferDur := sim.Cycles(prBufferWords, s.domain.Freq())
	backlog := s.port.BusyUntil().Sub(s.kernel.Now())
	if backlog > bufferDur {
		s.kernel.At(s.port.BusyUntil().Add(-bufferDur), fn)
		return true
	}
	return false
}

// drainThen runs finish once the ICAP pipeline has fully drained (so the
// parser's status — Done, CRC — is latched).
func (s *System) drainThen(finish func()) {
	at := s.port.BusyUntil().Add(2 * s.domain.Period())
	if at < s.kernel.Now() {
		at = s.kernel.Now()
	}
	s.kernel.At(at, finish)
}

// streamRaw paces chunks at the SRAM read rate into the ICAP.
func (s *System) streamRaw(words []uint32, finish func()) {
	const chunkWords = 128
	offset := 0
	var step func()
	step = func() {
		if offset >= len(words) {
			s.drainThen(finish)
			return
		}
		if s.throttle(step) {
			return
		}
		n := chunkWords
		if rem := len(words) - offset; n > rem {
			n = rem
		}
		chunk := words[offset : offset+n]
		offset += n
		// SRAM read time for the chunk, then hand to the ICAP; the PR
		// controller double-buffers so the ICAP consumes while the next
		// chunk is read.
		s.kernel.Schedule(sim.FromSeconds(float64(n*4)/s.sram.ReadBytesPerSec), func() {
			s.port.Feed(chunk, nil)
			step()
		})
	}
	step()
}

// streamCompressed walks the RLE records: literals cost SRAM bandwidth,
// zero-runs are synthesised by the decompressor at ICAP speed for free.
func (s *System) streamCompressed(img storedImage, words []uint32, finish func()) {
	// Decode the record structure once (hardware walks it streaming; the
	// timing below charges SRAM time per record as the hardware would).
	type rec struct {
		zeroRun, lit int
	}
	var recs []rec
	p := 12 // past magic + length
	produced := 0
	for produced < len(words)*4 {
		zr := int(be32(img.raw[p : p+4]))
		lit := int(be32(img.raw[p+4 : p+8]))
		p += 8 + lit*4
		produced += (zr + lit) * 4
		recs = append(recs, rec{zeroRun: zr, lit: lit})
	}
	offset := 0 // words produced so far
	i := 0
	var step func()
	step = func() {
		if i >= len(recs) {
			s.drainThen(finish)
			return
		}
		if s.throttle(step) {
			return
		}
		r := recs[i]
		i++
		n := r.zeroRun + r.lit
		chunk := words[offset : offset+n]
		offset += n
		// SRAM supplies the record header + literals only.
		sramBytes := 8 + r.lit*4
		s.kernel.Schedule(sim.FromSeconds(float64(sramBytes)/s.sram.ReadBytesPerSec), func() {
			s.port.Feed(chunk, nil)
			step()
		})
	}
	step()
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// TheoreticalThroughputMBs returns the paper's Sec.-VI headline number (the
// SRAM read-port rate in MB/s).
func TheoreticalThroughputMBs() float64 { return platform.SecVISRAM().ReadBytesPerSec / 1e6 }
