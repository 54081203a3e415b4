package hll

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
	"repro/internal/zynq"
)

func TestImageStoreMatchesFreshBuilds(t *testing.T) {
	store := NewImageStore()
	for _, prof := range platform.All() {
		dev := prof.NewDevice()
		for _, rp := range prof.RPs(dev) {
			for _, asp := range workload.Library() {
				got, err := store.Image(dev, asp, rp)
				if err != nil {
					t.Fatalf("%s %s@%s: %v", prof.Name, asp.Name, rp.Name, err)
				}
				want, err := asp.Bitstream(dev, rp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Encode(), want.Encode()) || got.ConfigCRC != want.ConfigCRC || got.FrameCRC() != want.FrameCRC() {
					t.Errorf("%s %s@%s: stored image differs from a fresh build", prof.Name, asp.Name, rp.Name)
				}
				// A second device of the same part asks for the same content.
				again, err := store.Image(prof.NewDevice(), asp, rp)
				if err != nil || again != got {
					t.Errorf("%s %s@%s: second request built a new image (err %v)", prof.Name, asp.Name, rp.Name, err)
				}
			}
		}
	}
}

func TestImageStoreKeysByPart(t *testing.T) {
	// zedboard and zc706 cut the same RP1 region, but the parts differ,
	// so the images (IDCODE, part name) must too.
	zc706, ok := platform.Lookup("zc706")
	if !ok {
		t.Fatal("zc706 not registered")
	}
	zed := platform.Default()
	zedDev, zcDev := zed.NewDevice(), zc706.NewDevice()
	zedRP, zcRP := zed.RPs(zedDev)[0], zc706.RPs(zcDev)[0]
	if zedRP != zcRP {
		t.Fatalf("precondition: RP1 regions differ: %+v vs %+v", zedRP, zcRP)
	}
	asp := workload.Library()[0]
	store := NewImageStore()
	a, err := store.Image(zedDev, asp, zedRP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Image(zcDev, asp, zcRP)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Header.Part == b.Header.Part {
		t.Errorf("zedboard and zc706 RP1 share an image (parts %q, %q)", a.Header.Part, b.Header.Part)
	}
}

func TestImageStoreSharedAcrossBoards(t *testing.T) {
	// Two boards on one store stage the same working set: each board's
	// simulated cache misses and stages every image, but both hold the
	// same image values.
	store := NewImageStore()
	asps := []string{"fir128", "sha3"}
	var svcs []*Service
	for seed := uint64(1); seed <= 2; seed++ {
		p, err := zynq.NewPlatform(zynq.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p.ConfigureStatic()
		svc := mustService(t, core.New(p), ServiceConfig{Prewarm: asps, Images: store})
		if err := svc.Begin(); err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
	}
	for _, svc := range svcs {
		cs := svc.eng.cache.Stats()
		if want := len(asps) * len(svc.eng.order); cs.Misses != want || svc.eng.stageTime <= 0 {
			t.Errorf("board staged %d misses in %v, want %d misses paying staging time", cs.Misses, svc.eng.stageTime, want)
		}
	}
	for _, asp := range asps {
		for _, rp := range svcs[0].eng.order {
			key := asp + "@" + rp
			a, okA := svcs[0].eng.cache.Get(key)
			b, okB := svcs[1].eng.cache.Get(key)
			if !okA || !okB || a != b {
				t.Errorf("%s: boards hold different images", key)
			}
		}
	}
}

func TestImageStoreConcurrent(t *testing.T) {
	// Parallel fleet boards miss on the same images at once: every
	// goroutine must get the one image built per key.
	prof := platform.Default()
	asps := workload.Library()
	keys := len(asps) * len(prof.RPNames())
	const workers = 4
	store := NewImageStore()
	got := make([][]*bitstream.Bitstream, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := prof.NewDevice()
			rps := prof.RPs(dev)
			got[w] = make([]*bitstream.Bitstream, keys)
			for i := 0; i < keys; i++ {
				k := (i + w*5) % keys // each worker starts at a different key
				bs, err := store.Image(dev, asps[k/len(rps)], rps[k%len(rps)])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][k] = bs
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[*bitstream.Bitstream]bool)
	for k := 0; k < keys; k++ {
		for w := 0; w < workers; w++ {
			if got[w][k] == nil || got[w][k] != got[0][k] {
				t.Fatalf("key %d: worker %d got %p, worker 0 got %p", k, w, got[w][k], got[0][k])
			}
		}
		if seen[got[0][k]] {
			t.Errorf("key %d shares its image with another key", k)
		}
		seen[got[0][k]] = true
	}
}
