package bitstream

import (
	"encoding/binary"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcChunkWords is how many words the CRC helpers pack per crc32.Update
// call: large enough to amortise the call overhead, small enough that the
// scratch buffers stay modest.
const crcChunkWords = 512

// ConfigCRC is the running configuration CRC maintained by the device while
// a bitstream loads. Every register write (including each FDRI data word)
// folds the 5-bit register address and the 32-bit word into the checksum;
// writing the CRC register compares the expected value and writing
// CMD=RCRC resets it. The zero value is a reset CRC.
//
// The struct owns its packing buffer: crc32.Update is an indirect call, so a
// per-call stack buffer would escape and allocate on every burst. Callers on
// the hot path (the ICAP parser) hold one ConfigCRC for their whole life and
// therefore fold words allocation-free.
type ConfigCRC struct {
	crc uint32
	buf [5 * crcChunkWords]byte
}

// Reset clears the running value (CMD = RCRC).
func (c *ConfigCRC) Reset() { c.crc = 0 }

// Update folds one register write into the checksum.
func (c *ConfigCRC) Update(reg Reg, word uint32) {
	c.buf[0] = byte(reg) & 0x1F
	c.buf[1] = byte(word >> 24)
	c.buf[2] = byte(word >> 16)
	c.buf[3] = byte(word >> 8)
	c.buf[4] = byte(word)
	c.crc = crc32.Update(c.crc, castagnoli, c.buf[:5])
}

// UpdateWords folds a run of writes to the same register (the FDRI case).
func (c *ConfigCRC) UpdateWords(reg Reg, words []uint32) {
	regByte := byte(reg) & 0x1F
	for len(words) > 0 {
		n := len(words)
		if n > crcChunkWords {
			n = crcChunkWords
		}
		off := 0
		for _, w := range words[:n] {
			c.buf[off] = regByte
			binary.BigEndian.PutUint32(c.buf[off+1:], w)
			off += 5
		}
		c.crc = crc32.Update(c.crc, castagnoli, c.buf[:off])
		words = words[n:]
	}
}

// Value returns the current checksum.
func (c *ConfigCRC) Value() uint32 { return c.crc }

// FrameCRCHasher accumulates the detached frame checksum incrementally.
// Like ConfigCRC it owns its packing buffer, so a long-lived hasher (the
// CRC read-back monitor keeps one per scan stream) folds frames without
// allocating. The zero value is ready to use.
type FrameCRCHasher struct {
	crc uint32
	buf [4 * crcChunkWords]byte
}

// Reset clears the running checksum for a new stream.
func (h *FrameCRCHasher) Reset() { h.crc = 0 }

// Fold accumulates one run of frame words.
func (h *FrameCRCHasher) Fold(words []uint32) {
	for len(words) > 0 {
		n := min(len(words), crcChunkWords)
		h.crc = crc32.Update(h.crc, castagnoli, h.pack(words[:n]))
		words = words[n:]
	}
}

// pack writes at most crcChunkWords words big-endian into the hasher's
// buffer and returns the bytes written.
func (h *FrameCRCHasher) pack(words []uint32) []byte {
	off := 0
	for _, w := range words {
		binary.BigEndian.PutUint32(h.buf[off:], w)
		off += 4
	}
	return h.buf[:off]
}

// Sum returns the accumulated checksum.
func (h *FrameCRCHasher) Sum() uint32 { return h.crc }

// FrameCRC computes a detached checksum over raw frame words, used by the
// CRC read-back monitor to compare configuration memory against the golden
// reference without replaying the packet stream.
func FrameCRC(frames [][]uint32) uint32 {
	var h FrameCRCHasher
	for _, f := range frames {
		h.Fold(f)
	}
	return h.Sum()
}

// FileCRC is the whole-payload checksum stored in the BIT-style header to
// detect storage/transport corruption (distinct from the config CRC).
func FileCRC(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }
