package main

import (
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestSingleSwitchSetting(t *testing.T) {
	if err := realMain(3, 0, 7, ""); err != nil { // 3 → 200 MHz
		t.Fatal(err)
	}
}

func TestHangSetting(t *testing.T) {
	if err := realMain(6, 0, 7, ""); err != nil { // 6 → 310 MHz: no interrupt
		t.Fatal(err)
	}
}

func TestWithHeatGun(t *testing.T) {
	if err := realMain(0, 80, 7, ""); err != nil {
		t.Fatal(err)
	}
}

func TestSweepAllSettings(t *testing.T) {
	if err := realMain(-1, 0, 7, ""); err != nil {
		t.Fatal(err)
	}
}

// TestSettingDeterministic pins the per-setting transcript: a setting runs
// on its own freshly booted board, so repeated runs produce identical text.
func TestSettingDeterministic(t *testing.T) {
	a, err := runSetting(platform.Default(), 3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSetting(platform.Default(), 3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("transcripts differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "200 MHz") {
		t.Errorf("transcript missing frequency:\n%s", a)
	}
}

func TestUnknownPlatformRejected(t *testing.T) {
	err := realMain(3, 0, 7, "zedboard-quantum")
	if err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("err = %v", err)
	}
}

func TestOtherPlatformSetting(t *testing.T) {
	// The Fig.-4 flow must replay on a non-default registered platform.
	zybo, ok := platform.Lookup("zybo-z7-10")
	if !ok {
		t.Fatal("zybo-z7-10 not registered")
	}
	out, err := runSetting(zybo, 3, 0, 7) // switch 3 → 180 MHz on the Zybo
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "180 MHz") {
		t.Errorf("zybo transcript missing its switch-3 frequency:\n%s", out)
	}
}

// TestIndentHelper pins the OLED framing byte for byte.
func TestIndentHelper(t *testing.T) {
	if got, want := indent("a\nb"), "  | a\n  | b"; got != want {
		t.Errorf("indent = %q, want %q", got, want)
	}
}

// TestSplitLines checks that indent keeps the empty line a trailing
// newline leaves, as a line of its own.
func TestSplitLines(t *testing.T) {
	if got, want := indent("x\ny\n"), "  | x\n  | y\n  | "; got != want {
		t.Errorf("indent = %q, want %q", got, want)
	}
}
