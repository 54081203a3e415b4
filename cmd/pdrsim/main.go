// Command pdrsim replays the paper's bench test flow (Fig. 4) on the
// simulated ZedBoard: boot from SD, select the over-clock frequency with
// the slide switches, push a button to load one of the two bitstreams, and
// read the OLED.
//
// Each switch setting runs on its own freshly booted board, as the paper's
// operators re-ran the flow per frequency.
//
// Usage:
//
//	pdrsim                 # walk all switch settings (the paper's sweep)
//	pdrsim -switches 3     # one setting (3 → 200 MHz per the switch table)
//	pdrsim -heat 100       # heat-gun the die first (Sec. IV-A)
//	pdrsim -platform zc706 # replay the flow on another registered platform
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

func main() {
	switches := flag.Int("switches", -1, "slide-switch value (-1 = sweep all)")
	heat := flag.Float64("heat", 0, "heat-gun die target in °C (0 = off)")
	seed := flag.Uint64("seed", 7, "simulation seed")
	plat := flag.String("platform", "", "platform profile to simulate (default zedboard; see pdrbench -list)")
	flag.Parse()

	if err := realMain(*switches, *heat, *seed, *plat); err != nil {
		fmt.Fprintln(os.Stderr, "pdrsim:", err)
		os.Exit(1)
	}
}

func realMain(switches int, heat float64, seed uint64, plat string) error {
	prof, ok := platform.Lookup(plat)
	if !ok {
		return fmt.Errorf("unknown platform %q (want %s)", plat, platform.NameList())
	}
	settings := []int{switches}
	if switches < 0 {
		settings = settings[:0]
		for i := range prof.IO.SwitchTableMHz {
			settings = append(settings, i)
		}
	}
	for _, sw := range settings {
		out, err := runSetting(prof, sw, heat, seed)
		if err != nil {
			return fmt.Errorf("switches=%d: %w", sw, err)
		}
		fmt.Print(out)
	}
	return nil
}

// runSetting boots a fresh board of the given platform, optionally heats
// it, selects the switch setting and performs the button-driven load,
// returning the transcript.
func runSetting(prof *platform.Profile, sw int, heat float64, seed uint64) (string, error) {
	p, err := zynq.NewPlatform(zynq.Options{Seed: seed, Profile: prof, FastThermal: true})
	if err != nil {
		return "", err
	}
	b := board.New(p)

	// The SD card carries the application and two partial bitstreams,
	// as in the paper's test flow.
	b.SD.Store("boot.bin", []byte("pdr-app"))
	aspA, err := workload.LibraryASP("fir128")
	if err != nil {
		return "", err
	}
	aspB, err := workload.LibraryASP("sha3")
	if err != nil {
		return "", err
	}
	bsA, err := aspA.Bitstream(p.Device, p.RPs[0])
	if err != nil {
		return "", err
	}
	bsB, err := aspB.Bitstream(p.Device, p.RPs[0])
	if err != nil {
		return "", err
	}
	b.SD.Store("partial_a.bit", bsA.Raw)
	b.SD.Store("partial_b.bit", bsB.Raw)

	if err := b.Boot(); err != nil {
		return "", err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "booted; SD card: %v\n", b.SD.Files())
	ctrl := core.New(p)

	if heat > 0 {
		fmt.Fprintf(&out, "heat gun on, target %.0f °C…\n", heat)
		if _, ok := p.Gun.StabilizeAt(heat, 0.5, 10*sim.Minute); !ok {
			return "", fmt.Errorf("die never reached %.0f °C", heat)
		}
		fmt.Fprintf(&out, "die at %.1f °C\n", p.Die.Sensor())
	}

	b.SetSwitches(uint8(sw))
	freq, err := b.SelectedFrequencyMHz()
	if err != nil {
		return "", err
	}
	if _, err := ctrl.SetFrequencyMHz(freq); err != nil {
		return "", err
	}
	// Push-button A starts the ICAP operation on bitstream A.
	var res core.Result
	var loadErr error
	b.OnButton(board.BtnLoadA, func() {
		res, loadErr = ctrl.Load("RP1", bsA)
	})
	b.Press(board.BtnLoadA)
	p.Kernel.RunFor(2 * sim.Millisecond)
	if loadErr != nil {
		return "", loadErr
	}
	lat := 0.0
	if res.IRQReceived {
		lat = res.LatencyUS
	}
	b.ShowStatus(freq, res.CRCValid, lat)
	fmt.Fprintf(&out, "switches=%d → %3.0f MHz\n%s\n\n", sw, freq, indent(b.OLED.String()))
	return out.String(), nil
}

// indent frames every line of the OLED text, a trailing empty one too.
func indent(s string) string {
	return "  | " + strings.Join(strings.Split(s, "\n"), "\n  | ")
}
