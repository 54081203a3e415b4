// Package repro_test holds micro-benchmarks of the simulator's hot
// substrate paths: bitstream assembly, the configuration CRC, the Sec.-VI
// RLE codec and the event kernel. End-to-end and per-layer performance is
// measured by perfbench (perfbench/README.md), and the paper's artefacts
// are recorded in EXPERIMENTS.md, which `pdrbench -md` regenerates.
package repro_test

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchFrames(n int) [][]uint32 {
	rng := sim.NewRNG(1)
	frames := make([][]uint32, n)
	for i := range frames {
		f := make([]uint32, fabric.FrameWords)
		for w := range f {
			if rng.Bool(0.5) {
				f[w] = rng.Uint32()
			}
		}
		frames[i] = f
	}
	return frames
}

// BenchmarkBitstreamBuild measures assembling the 529 KB partial bitstream.
func BenchmarkBitstreamBuild(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	frames := benchFrames(dev.RegionFrames(rp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Build(dev, rp, "bench", frames); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(bitstream.ExpectedSize(1308)))
}

// BenchmarkConfigCRC measures the running configuration CRC over a full
// FDRI payload.
func BenchmarkConfigCRC(b *testing.B) {
	frames := benchFrames(1308)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var crc bitstream.ConfigCRC
		for _, f := range frames {
			crc.UpdateWords(bitstream.RegFDRI, f)
		}
	}
	b.SetBytes(int64(1308 * fabric.FrameWords * 4))
}

// BenchmarkCompress / BenchmarkDecompress measure the Sec.-VI RLE codec on
// a realistic image.
func BenchmarkCompress(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := asp.Bitstream(dev, rp)
	if err != nil {
		b.Fatal(err)
	}
	raw := bs.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Compress(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(raw)))
}

func BenchmarkDecompress(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := asp.Bitstream(dev, rp)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := bitstream.Compress(bs.Encode())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(bs.Size()))
}

// BenchmarkKernelEvents measures the DES kernel's event throughput (the
// simulation's own speed limit).
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		k.Schedule(10*sim.Nanosecond, tick)
	}
	k.Schedule(10*sim.Nanosecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
