package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// runOne executes one scenario through Execute at the given goroutine
// budget and returns its merged report.
func runOne(s Scenario, cfg Config, budget int) (*Report, error) {
	ex, err := Execute(context.Background(), []Scenario{s}, cfg, budget)
	if err != nil {
		return nil, err
	}
	return ex.Reports[0], nil
}

// synthetic is an unregistered n-shard scenario whose shards run fn.
func synthetic(n int, fn func(ctx context.Context, shard int) (*Report, error)) Scenario {
	return Scenario{
		ID:     "T1",
		Title:  "synthetic",
		Shards: func(Config) int { return n },
		Run: func(ctx context.Context, _ *Boards, shard int) (*Report, error) {
			return fn(ctx, shard)
		},
	}
}

// TestExecuteErrorSelection pins the deterministic error rule: a real
// failure at shard 2 beats a later real failure (shard 5) and a bare
// cancellation (shard 4), at any budget. Shards 4 and 5 finish only after
// shard 2 has failed, so at budget 4 all three errors are really raised.
func TestExecuteErrorSelection(t *testing.T) {
	for _, budget := range []int{1, 4} {
		errTwo, errFive := errors.New("two broke"), errors.New("five broke")
		twoDone := make(chan struct{})
		s := synthetic(6, func(ctx context.Context, shard int) (*Report, error) {
			switch shard {
			case 2:
				close(twoDone)
				return nil, errTwo
			case 4:
				<-twoDone
				return nil, context.Canceled
			case 5:
				<-twoDone
				return nil, errFive
			}
			return &Report{}, nil
		})
		_, err := Execute(context.Background(), []Scenario{s}, Config{Seed: 1}, budget)
		if !errors.Is(err, errTwo) || !strings.Contains(err.Error(), "T1 shard 2") {
			t.Errorf("budget %d: err = %v, want shard 2's failure", budget, err)
		}
	}
	// A cancellation at a lower index than a real failure still loses to
	// it. Shard 1 cancels only after shard 3 failed, which needs a second
	// worker, so this case runs at budget 4 only.
	errThree := errors.New("three broke")
	threeDone := make(chan struct{})
	s := synthetic(4, func(ctx context.Context, shard int) (*Report, error) {
		switch shard {
		case 1:
			<-threeDone
			return nil, context.Canceled
		case 3:
			close(threeDone)
			return nil, errThree
		}
		return &Report{}, nil
	})
	if _, err := Execute(context.Background(), []Scenario{s}, Config{Seed: 1}, 4); !errors.Is(err, errThree) {
		t.Errorf("err = %v, want shard 3's failure over shard 1's cancellation", err)
	}
	// A bare cancellation surfaces when nothing else failed.
	s = synthetic(3, func(ctx context.Context, shard int) (*Report, error) {
		if shard == 1 {
			return nil, context.Canceled
		}
		return &Report{}, nil
	})
	if _, err := Execute(context.Background(), []Scenario{s}, Config{Seed: 1}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// newBoards is the source Execute hands one unit of a campaign on cfg.
func newBoards(t *testing.T, cfg Config) *Boards {
	t.Helper()
	prof, err := ProfileFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Boards{Cfg: cfg, Profile: prof}
}

// TestExecuteMergeOrderAndTallies: Merge sees the parts in shard index
// order whatever the schedule, and the merged report's SimEvents and
// WallMS fold over the parts. A shard that boots no board reports exactly
// the events it set itself.
func TestExecuteMergeOrderAndTallies(t *testing.T) {
	for _, budget := range []int{1, 4} {
		s := synthetic(5, func(ctx context.Context, shard int) (*Report, error) {
			return &Report{Rows: [][]string{{strconv.Itoa(shard)}}, SimEvents: 1000 * uint64(shard+1)}, nil
		})
		var seen []*Report
		s.Merge = func(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
			seen = parts
			return &Report{ID: "T1", SimEvents: 7}, nil
		}
		ex, err := Execute(context.Background(), []Scenario{s}, Config{Seed: 1}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Units != 5 || ex.Workers != min(budget, 5) {
			t.Errorf("budget %d: %d units on %d workers", budget, ex.Units, ex.Workers)
		}
		wantEvents, wantWall := uint64(7), 0.0
		for k, p := range seen {
			if got := p.Rows[0][0]; got != strconv.Itoa(k) {
				t.Errorf("budget %d: part %d came from shard %s", budget, k, got)
			}
			if p.SimEvents != 1000*uint64(k+1) || p.WallMS <= 0 {
				t.Errorf("budget %d: part %d tallies %d events, %.3f ms", budget, k, p.SimEvents, p.WallMS)
			}
			wantEvents += p.SimEvents
			wantWall += p.WallMS
		}
		if rep := ex.Reports[0]; rep.SimEvents != wantEvents || rep.WallMS != wantWall {
			t.Errorf("budget %d: merged tallies %d events, %.3f ms; want %d, %.3f",
				budget, rep.SimEvents, rep.WallMS, wantEvents, wantWall)
		}
	}
}

// TestExecuteCountsEveryBootedBoard: a shard that boots two boards — the
// campaign platform and a named one — reports its own events plus every
// event both kernels fired, including the load run on the first, at any
// budget.
func TestExecuteCountsEveryBootedBoard(t *testing.T) {
	for _, budget := range []int{1, 4} {
		kernels := make([][]*sim.Kernel, 3)
		s := synthetic(3, nil)
		s.Run = func(ctx context.Context, src *Boards, shard int) (*Report, error) {
			campaign, err := src.Env()
			if err != nil {
				return nil, err
			}
			if _, err := campaign.Controller.Load("RP1", campaign.Bitstream); err != nil {
				return nil, err
			}
			named, err := src.EnvFor("zc706")
			if err != nil {
				return nil, err
			}
			kernels[shard] = []*sim.Kernel{campaign.Platform.Kernel, named.Platform.Kernel}
			return &Report{SimEvents: 100 * uint64(shard+1)}, nil
		}
		var parts []*Report
		s.Merge = func(_ Config, _ *platform.Profile, ps []*Report) (*Report, error) {
			parts = ps
			return &Report{}, nil
		}
		if _, err := Execute(context.Background(), []Scenario{s}, Config{Seed: 1}, budget); err != nil {
			t.Fatal(err)
		}
		for k, p := range parts {
			ks := kernels[k]
			want := 100*uint64(k+1) + ks[0].Fired() + ks[1].Fired()
			if p.SimEvents != want {
				t.Errorf("budget %d: shard %d tallies %d events, want %d (own %d + boards %d, %d)",
					budget, k, p.SimEvents, want, 100*(k+1), ks[0].Fired(), ks[1].Fired())
			}
		}
	}
}

// TestExecuteUnknownPlatformBeforeShards: a bad campaign platform fails
// before any shard runs, naming the value and the registered platforms.
func TestExecuteUnknownPlatformBeforeShards(t *testing.T) {
	for _, budget := range []int{1, 4} {
		var ran atomic.Int32
		s := synthetic(3, func(ctx context.Context, shard int) (*Report, error) {
			ran.Add(1)
			return &Report{}, nil
		})
		_, err := Execute(context.Background(), []Scenario{s}, Config{Platform: "zedboard-quantum"}, budget)
		if err == nil || !strings.Contains(err.Error(), `"zedboard-quantum"`) || !strings.Contains(err.Error(), "zc706") {
			t.Errorf("budget %d: err = %v, want the bad value and the registered platforms", budget, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("budget %d: %d shards ran before the platform was rejected", budget, n)
		}
	}
}
