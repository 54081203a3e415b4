// Command bitgen generates, inspects and compresses the synthetic partial
// bitstreams used throughout the reproduction.
//
// Usage:
//
//	bitgen -asp fir128 -rp RP1 -out fir128.bit         # generate
//	bitgen -asp fir128 -rp RP1 -out fir128.bitc -z     # generate compressed
//	bitgen -all -dir images/                           # the whole library
//	bitgen -list                                       # ASP library table
//	bitgen -inspect fir128.bit                         # decode the header
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	asp := flag.String("asp", "", "ASP name from the workload library")
	rp := flag.String("rp", "RP1", "target reconfigurable partition")
	out := flag.String("out", "", "output file")
	compress := flag.Bool("z", false, "store RLE-compressed")
	inspect := flag.String("inspect", "", "file to decode instead of generating")
	all := flag.Bool("all", false, "generate every library ASP (into -dir)")
	dir := flag.String("dir", ".", "output directory for -all")
	list := flag.Bool("list", false, "print the ASP library and exit")
	plat := flag.String("platform", "", "platform profile the RP geometry comes from (default zedboard)")
	flag.Parse()

	if err := realMain(*asp, *rp, *out, *compress, *inspect, *all, *dir, *list, *plat); err != nil {
		fmt.Fprintln(os.Stderr, "bitgen:", err)
		os.Exit(1)
	}
}

func realMain(aspName, rpName, out string, compress bool, inspect string, all bool, dir string, list bool, plat string) error {
	if list {
		fmt.Printf("%-12s %-6s %-12s %-10s %s\n", "ASP", "fill", "compute", "clock", "mem MB/s")
		for _, a := range workload.Library() {
			fmt.Printf("%-12s %-6.2f %-12s %-10s %.0f\n",
				a.Name, a.FillFraction, a.ComputeTime, fmt.Sprintf("%.0f MHz", a.ClockMHz), a.MemBandwidthMBs)
		}
		return nil
	}
	if inspect != "" {
		return doInspect(inspect)
	}
	if all {
		return doAll(rpName, dir, compress, plat)
	}
	if aspName == "" || out == "" {
		return fmt.Errorf("need -asp and -out (or -all/-list/-inspect); ASPs: %s", aspNames())
	}
	prof, ok := platform.Lookup(plat)
	if !ok {
		return fmt.Errorf("unknown platform %q (want %s)", plat, platform.NameList())
	}
	dev := prof.NewDevice()
	var region *fabric.Region
	for _, r := range prof.RPs(dev) {
		if r.Name == rpName {
			r := r
			region = &r
			break
		}
	}
	if region == nil {
		return fmt.Errorf("unknown RP %q", rpName)
	}
	asp, err := workload.LibraryASP(aspName)
	if err != nil {
		return err
	}
	bs, err := asp.Bitstream(dev, *region)
	if err != nil {
		return err
	}
	raw := bs.Encode()
	data := raw
	if compress {
		if data, err = bitstream.Compress(raw); err != nil {
			return err
		}
		fmt.Printf("compressed %d → %d bytes (%.2fx)\n",
			len(raw), len(data), bitstream.CompressionRatio(raw, data))
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s for %s, %d frames, %d bytes on disk\n",
		out, aspName, rpName, bs.Header.Frames, len(data))
	return nil
}

// doAll writes every library ASP's image for the RP into dir, so a whole
// SD card's worth of bitstreams comes from one command.
func doAll(rpName, dir string, compress bool, plat string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range workload.Library() {
		ext := ".bit"
		if compress {
			ext = ".bitc"
		}
		out := filepath.Join(dir, a.Name+ext)
		if err := realMain(a.Name, rpName, out, compress, "", false, "", false, plat); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

func doInspect(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if dec, derr := bitstream.Decompress(data); derr == nil {
		fmt.Printf("compressed image: %d bytes → %d bytes (%.2fx)\n",
			len(data), len(dec), bitstream.CompressionRatio(dec, data))
		data = dec
	}
	h, err := bitstream.ParseHeader(data)
	if err != nil {
		return err
	}
	fmt.Printf("name:      %s\npart:      %s\nframes:    %d\nwords:     %d\nfile size: %d bytes\nfile CRC:  %08x (verified)\n",
		h.Name, h.Part, h.Frames, h.DataWords, len(data), h.FileCRC)
	return nil
}

func aspNames() string { return strings.Join(workload.LibraryNames(), ", ") }
