// Package pdr is the public API of the reproduction: a simulated
// ZedBoard/Zynq-7000 with the paper's over-clocked dynamic partial
// reconfiguration system, ready for experiments.
//
// The quickest path:
//
//	sys, err := pdr.NewSystem()
//	…
//	sys.SetFrequencyMHz(200)
//	res, err := sys.LoadASP("RP1", "fir128")
//	fmt.Println(res.LatencyUS, res.ThroughputMBs, res.CRCValid)
//
// Everything the paper's evaluation does is reachable from System:
// frequency sweeps (Table I / Fig. 5), heat-gun stress (Sec. IV-A), power
// profiling (Fig. 6 / Table II), the power-efficiency optimizer, robust
// loading with automatic fallback, and the Sec.-VI SRAM pipeline.
//
// The package re-exports the domain types a downstream user touches; the
// heavy machinery stays in internal packages.
package pdr

import (
	"context"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/hll"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/srampdr"
	"repro/internal/workload"
	"repro/internal/zynq"
)

// Re-exported domain types (aliases so values flow freely between the
// public surface and the internals).
type (
	// Result of a single partial reconfiguration.
	Result = core.Result
	// SweepPoint is one frequency-sweep measurement.
	SweepPoint = core.SweepPoint
	// StressCell is one temperature-stress measurement.
	StressCell = core.StressCell
	// PowerPoint is one power-grid measurement.
	PowerPoint = core.PowerPoint
	// Recommendation is the optimizer's chosen operating point.
	Recommendation = core.Recommendation
	// Recovery describes a robust-load episode.
	Recovery = core.Recovery
	// Bitstream is a partial configuration image.
	Bitstream = bitstream.Bitstream
	// ASP is an accelerator personality from the workload library.
	ASP = workload.ASP
	// Trace is a reconfiguration request sequence.
	Trace = workload.Trace
	// ArrivalSpec describes an open-loop arrival process (rate, bursts,
	// tenants, deadlines).
	ArrivalSpec = workload.ArrivalSpec
	// RateCurve is a time-varying arrival-rate profile: piecewise-linear
	// diurnal anchors plus flash-crowd spikes, attached to an ArrivalSpec
	// via its Curve field.
	RateCurve = workload.RateCurve
	// RatePoint is one (time, rate) anchor of a RateCurve.
	RatePoint = workload.RatePoint
	// Flash is a flash-crowd spike (ramp/hold/decay) stacked on a
	// RateCurve's base profile.
	Flash = workload.Flash
	// SLOClass is a service-level class requests are drawn into (its own
	// deadline and traffic share).
	SLOClass = workload.SLOClass
	// FrameworkStats summarises a multi-RP accelerator run.
	FrameworkStats = hll.Stats
	// ServiceStats summarises an open-loop reconfiguration-service run
	// (admission control, sojourn tail latency, cache behaviour).
	ServiceStats = hll.ServiceStats
	// TenantStats is one traffic source's view of a service run.
	TenantStats = hll.TenantStats
)

// Option configures NewSystem.
type Option func(*options)

type options struct {
	seed     uint64
	platform string
}

// WithSeed fixes the deterministic seed (default 1).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithPlatform selects the registered platform profile the system simulates
// (default "zedboard", the paper's calibrated board; see Platforms for the
// registry). The profile is the board's environment too: "zedboard-hot"
// boots in a 45 °C chamber and "zedboard-slow-thermal" heats with the
// physical 2 s time constant.
func WithPlatform(name string) Option { return func(o *options) { o.platform = name } }

// PlatformInfo summarises one registered platform profile.
type PlatformInfo struct {
	// Name is the registry key accepted by WithPlatform / BoardVariant.
	Name string
	// Board and Part name the hardware.
	Board, Part string
	// Summary is a one-line description.
	Summary string
	// Variant reports whether the profile is a preset of another board
	// rather than distinct silicon.
	Variant bool
}

// Platforms lists the registered platform profiles in registry order.
func Platforms() []PlatformInfo {
	profs := platform.All()
	out := make([]PlatformInfo, len(profs))
	for i, p := range profs {
		out[i] = PlatformInfo{
			Name:    p.Name,
			Board:   p.Board,
			Part:    p.Part,
			Summary: p.Summary,
			Variant: p.VariantOf != "",
		}
	}
	return out
}

// System is a booted board plus the paper's controller stack.
type System struct {
	Board      *board.Board
	Controller *core.Controller

	meter    *power.Meter
	images   *hll.ImageStore // every image this system builds or serves
	sramInit bool
	serves   int // Serve ordinal, keys ServeOptions.Tracer's fleets
}

// NewSystem builds and boots a simulated board with the PDR design (the
// paper's ZedBoard unless WithPlatform selects another registered profile).
func NewSystem(opts ...Option) (*System, error) {
	o := options{seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	prof, ok := platform.Lookup(o.platform)
	if !ok {
		return nil, fmt.Errorf("pdr: unknown platform %q (registered: %s)", o.platform, platform.NameList())
	}
	p, err := zynq.NewPlatform(zynq.Options{Seed: o.seed, Profile: prof})
	if err != nil {
		return nil, err
	}
	b := board.New(p)
	b.SD.Store("boot.bin", []byte("pdr-app"))
	if err := b.Boot(); err != nil {
		return nil, err
	}
	return &System{
		Board:      b,
		Controller: core.New(p),
		meter:      b.Meter,
		images:     hll.NewImageStore(),
	}, nil
}

// Platform exposes the underlying SoC model.
func (s *System) Platform() *zynq.Platform { return s.Controller.Platform() }

// ASPs lists the workload library.
func (s *System) ASPs() []ASP { return workload.Library() }

// BuildBitstream synthesises the ASP's partial bitstream for an RP, once
// per system: later calls, loads and Serve's services share the image.
func (s *System) BuildBitstream(rp, asp string) (*Bitstream, error) {
	region, err := s.Platform().RP(rp)
	if err != nil {
		return nil, err
	}
	a, err := workload.LibraryASP(asp)
	if err != nil {
		return nil, err
	}
	return s.images.Image(s.Platform().Device, a, region)
}

// SetFrequencyMHz re-programs the over-clock domain (costs the MMCM lock
// time in simulated time) and returns the exact achieved frequency.
func (s *System) SetFrequencyMHz(f float64) (float64, error) {
	return s.Controller.SetFrequencyMHz(f)
}

// LoadASP builds (or reuses) the ASP's bitstream and performs one partial
// reconfiguration at the current frequency.
func (s *System) LoadASP(rp, asp string) (Result, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return Result{}, err
	}
	return s.Controller.Load(rp, bs)
}

// Load performs one partial reconfiguration with a caller-supplied image.
func (s *System) Load(rp string, bs *Bitstream) (Result, error) {
	return s.Controller.Load(rp, bs)
}

// RobustLoad wraps Load with CRC-verified fallback to the nominal clock.
func (s *System) RobustLoad(rp, asp string) (Recovery, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return Recovery{}, err
	}
	guard := &core.RobustGuard{C: s.Controller}
	return guard.Load(rp, bs)
}

// Sweep measures throughput at each frequency (Table I / Fig. 5).
func (s *System) Sweep(rp, asp string, freqsMHz []float64) ([]SweepPoint, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return nil, err
	}
	cal := &core.Calibrator{C: s.Controller, RP: rp, Bitstream: bs}
	return cal.Sweep(context.Background(), freqsMHz)
}

// StressMatrix reruns the sweep across die temperatures with the heat gun
// (Sec. IV-A).
func (s *System) StressMatrix(rp, asp string, freqsMHz, tempsC []float64) ([]StressCell, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return nil, err
	}
	cal := &core.Calibrator{C: s.Controller, RP: rp, Bitstream: bs}
	return cal.StressMatrix(context.Background(), freqsMHz, tempsC)
}

// PowerGrid measures P_PDR over frequency × temperature (Fig. 6/Table II).
func (s *System) PowerGrid(rp, asp string, freqsMHz, tempsC []float64) ([]PowerPoint, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return nil, err
	}
	pp := &core.PowerProfiler{C: s.Controller, Meter: s.meter, RP: rp, Bitstream: bs}
	return pp.Grid(context.Background(), freqsMHz, tempsC)
}

// Optimize runs the paper's methodology: find the most power-efficient
// frequency that stays robust up to worstTempC with the given margin.
func (s *System) Optimize(rp, asp string, freqsMHz []float64, worstTempC, margin float64) (Recommendation, error) {
	bs, err := s.BuildBitstream(rp, asp)
	if err != nil {
		return Recommendation{}, err
	}
	pp := &core.PowerProfiler{C: s.Controller, Meter: s.meter, RP: rp, Bitstream: bs}
	opt := &core.Optimizer{Profiler: pp, WorstTempC: worstTempC, Margin: margin}
	return opt.Choose(freqsMHz)
}

// HeatTo servos the heat gun until the die reaches tempC.
func (s *System) HeatTo(tempC float64) error {
	if _, ok := s.Platform().Gun.StabilizeAt(tempC, 0.5, 10*sim.Minute); !ok {
		return fmt.Errorf("pdr: heat gun failed to reach %v°C", tempC)
	}
	return nil
}

// HeatOff turns the gun off.
func (s *System) HeatOff() { s.Platform().Gun.Off() }

// DieTempC reads the XADC temperature sensor.
func (s *System) DieTempC() float64 { return s.Platform().Die.Sensor() }

// BoardPowerW reads the current-sense headers (whole board).
func (s *System) BoardPowerW() float64 { return s.meter.ReadBoard() }

// PDRPowerW reads the baseline-subtracted P_PDR.
func (s *System) PDRPowerW() float64 { return s.meter.ReadPDR() }

// Framework builds the Fig.-1 multi-RP acceleration framework; its images
// come from the system's own store.
func (s *System) Framework() *hll.Framework { return hll.New(s.Controller, s.images) }

// rpNames lists the system's partition names in platform order.
func (s *System) rpNames() []string {
	rps := make([]string, 0, len(s.Platform().RPs))
	for _, rp := range s.Platform().RPs {
		rps = append(rps, rp.Name)
	}
	return rps
}

// OpenTrace generates an open-loop arrival stream over the system's RPs
// from the spec (rate, burstiness, tenants, deadlines) — the input Serve
// consumes.
func (s *System) OpenTrace(spec ArrivalSpec, seed uint64, n int, asps []string) (Trace, error) {
	return spec.Generate(seed, n, s.rpNames(), asps)
}

// OpenTraceUntil generates an open-loop arrival stream covering the time
// horizon instead of a fixed request count — the natural form when the
// spec carries a RateCurve whose shape (not a count) defines the run.
func (s *System) OpenTraceUntil(spec ArrivalSpec, seed uint64, horizon sim.Duration, asps []string) (Trace, error) {
	return spec.GenerateUntil(seed, horizon, s.rpNames(), asps)
}

// TraceFileVersion is the schema version ExportTrace writes and the newest
// ImportTrace accepts.
const TraceFileVersion = workload.TraceFileVersion

// ExportTrace encodes a trace as a canonical versioned JSON document:
// exporting, importing and re-exporting reproduces the bytes exactly.
func ExportTrace(tr Trace) ([]byte, error) { return workload.ExportTrace(tr) }

// ImportTrace decodes a trace file, rejecting unknown future schema
// versions and malformed streams with descriptive errors.
func ImportTrace(data []byte) (Trace, error) { return workload.ImportTrace(data) }

// Policies lists the dispatch policies Serve accepts.
func Policies() []string { return sched.PolicyNames() }

// ServiceConfig is a board's reconfiguration-service settings: dispatch
// policy, DRAM bitstream cache budget (0 = the platform profile's derived
// budget, < 0 = no cache, or CacheBudgetImages × the board's image size),
// per-RP queue cap (0 = 32, < 0 = unbounded), prewarm set and CRC repair
// mode. Each board resolves it against its own profile.
type ServiceConfig = hll.ServiceConfig

// ServeOptions configures System.Serve.
type ServeOptions struct {
	// Service is the service configuration (the zero value is FCFS over
	// the profile's cache budget with 32-deep queues).
	Service ServiceConfig
	// Tracer, when non-nil, records the run's request spans (queue wait,
	// cache staging, ICAP transfer, compute) and service events under the
	// key "serve/NN" (NN = this system's Serve ordinal). Tracing never
	// changes ServiceStats. Nil (the default) costs nothing.
	Tracer *Tracer
}

// Serve runs an open-loop request stream through the reconfiguration
// service: per-RP queues with admission control, the chosen dispatch
// policy arbitrating the single ICAP, and a DRAM bitstream cache staged
// from the board's SD card at the profile rate. Each call serves on a
// fresh service (empty queues, cold or prewarmed cache); its images come
// from the system's own store, built once per system.
func (s *System) Serve(tr Trace, o ServeOptions) (ServiceStats, error) {
	if o.Service.Images == nil {
		o.Service.Images = s.images
	}
	svc, err := hll.NewService(s.Controller, o.Service)
	if err != nil {
		return ServiceStats{}, fmt.Errorf("pdr: %w", err)
	}
	if o.Tracer != nil {
		prof := s.Platform().Profile
		ft := o.Tracer.Fleet(fmt.Sprintf("serve/%02d", s.serves),
			fmt.Sprintf("%s, %s", prof.Name, svc.Policy().Name()))
		s.serves++
		svc.SetTracer(ft.Board(0))
		ft.Bind(0, prof.Name, svc.RPNames())
	}
	return svc.Serve(tr)
}

// SRAMPipeline builds the Sec.-VI proposed reconfiguration environment
// sharing this system's fabric (its own DDR port, hard-macro ICAP at
// 550 MHz). A system supports one pipeline: a second call would register a
// duplicate DDR master contending for the same port, so it is rejected.
func (s *System) SRAMPipeline() (*srampdr.System, error) {
	if s.sramInit {
		return nil, fmt.Errorf("pdr: SRAM pipeline already initialised for this system")
	}
	p := s.Platform()
	sys, err := srampdr.New(srampdr.Config{
		Kernel: p.Kernel,
		Device: p.Device,
		Memory: p.Memory,
		DDR:    dram.NewController(p.Kernel, p.Profile.DRAM),
		TempC:  func() float64 { return p.Die.TempC() },
		Seed:   99,
	})
	if err != nil {
		return nil, err
	}
	s.sramInit = true
	return sys, nil
}

// RunFor advances simulated time (e.g. to let temperature settle).
func (s *System) RunFor(d sim.Duration) { s.Platform().Kernel.RunFor(d) }

// Regions lists the reconfigurable partitions.
func (s *System) Regions() []fabric.Region { return s.Platform().RPs }
