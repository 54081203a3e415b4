package hll

import (
	"sync"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/workload"
)

// ImageStore builds each partial-bitstream image once and hands the same
// immutable *bitstream.Bitstream to every caller asking for the same
// content; it is the one image cache of the simulator. It is a host-side
// saving only: the simulated DRAM cache (sched.Cache) in front of it keeps
// its own hits, misses, evictions and staging time, so a board still pays
// simulated staging on every miss.
//
// A store is owned by one scope and is dropped with it: a campaign run
// (every unit of one experiments.Execute), a planner memo, a fleet, a
// pdr.System, or a standalone service or framework. None is process-wide, so an image lives
// only as long as the scope that asked for it. A store is safe for
// concurrent use by the shards of a campaign and the boards of a parallel
// fleet.
type ImageStore struct {
	mu     sync.Mutex
	images map[imageKey]*storedImage
}

// imageKey is everything an image's bytes depend on.
type imageKey struct {
	geom   fabric.Geometry
	asp    workload.ASP
	region fabric.Region
}

// storedImage is built once, outside the store's lock, so boards missing
// on different images build them in parallel.
type storedImage struct {
	once sync.Once
	bs   *bitstream.Bitstream
	err  error
}

// NewImageStore returns an empty store.
func NewImageStore() *ImageStore {
	return &ImageStore{images: make(map[imageKey]*storedImage)}
}

// Len returns the number of distinct images the store has been asked for;
// it builds each of them once.
func (s *ImageStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.images)
}

// Image returns the ASP's image for region r of dev, building it on the
// first request for that content. Callers must treat it as read-only.
func (s *ImageStore) Image(dev *fabric.Device, asp workload.ASP, r fabric.Region) (*bitstream.Bitstream, error) {
	key := imageKey{geom: dev.Geometry(), asp: asp, region: r}
	s.mu.Lock()
	img, ok := s.images[key]
	if !ok {
		img = &storedImage{}
		s.images[key] = img
	}
	s.mu.Unlock()
	img.once.Do(func() { img.bs, img.err = asp.Bitstream(dev, r) })
	return img.bs, img.err
}
