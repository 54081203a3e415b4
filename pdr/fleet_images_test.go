package pdr

import "testing"

// TestFleetServeReusesImageStore: every Serve of one Fleet builds its
// boards' images in the one store NewFleet made, so a repeated Serve
// builds no image.
func TestFleetServeReusesImageStore(t *testing.T) {
	asps := []string{"fir128", "sha3", "aes-gcm", "fft1k"}
	f, err := NewFleet(FleetOptions{Boards: make([]string, 4), Service: ServiceConfig{Prewarm: asps}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.OpenTrace(ArrivalSpec{RatePerSec: 400}, 7, 32, asps)
	if err != nil {
		t.Fatal(err)
	}
	store := f.cfg.Service.Images
	if _, err := f.Serve(tr); err != nil {
		t.Fatal(err)
	}
	built := store.Len()
	if built == 0 {
		t.Fatal("the first Serve built no image in the fleet's store")
	}
	if _, err := f.Serve(tr); err != nil {
		t.Fatal(err)
	}
	if again := store.Len() - built; again != 0 {
		t.Errorf("the second Serve built %d images, want 0", again)
	}
}
