package hll

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCrashDropsWorkAndRecoverServes pins the crash semantics the fleet's
// chaos layer relies on: a crash loses in-flight and queued work (counted,
// not stalled), offers are refused without admission accounting while down,
// and a recovered service admits and completes again.
func TestCrashDropsWorkAndRecoverServes(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{QueueCap: 8})
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	// Pile work onto one RP: one dispatches, the rest queue.
	for i := 0; i < 4; i++ {
		req := workload.Request{At: 0, RP: "RP1", ASP: "fir128", Tenant: "alpha"}
		if admitted, err := s.Offer(req); err != nil || !admitted {
			t.Fatalf("offer %d: admitted=%v err=%v", i, admitted, err)
		}
	}
	if s.Outstanding() != 4 {
		t.Fatalf("outstanding = %d, want 4", s.Outstanding())
	}

	s.Crash()
	if !s.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	if s.Outstanding() != 0 {
		t.Errorf("outstanding = %d after crash, want 0 (all lost)", s.Outstanding())
	}
	// A crashed board refuses connections: no admission accounting at all.
	if admitted, err := s.Offer(workload.Request{RP: "RP1", ASP: "fir128"}); err != nil || admitted {
		t.Errorf("offer on crashed board: admitted=%v err=%v, want refused cleanly", admitted, err)
	}

	s.Recover()
	if s.Crashed() {
		t.Fatal("Crashed() true after Recover")
	}
	if err := s.AdvanceTo(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if admitted, err := s.Offer(workload.Request{At: 10 * sim.Millisecond, RP: "RP1", ASP: "fir128", Tenant: "alpha"}); err != nil || !admitted {
		t.Fatalf("offer after recovery: admitted=%v err=%v", admitted, err)
	}

	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Lost != 4 {
		t.Errorf("lost = %d, want 4", st.Lost)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1 (the post-recovery request)", st.Completed)
	}
	// The refused offer never entered the admission counters.
	if st.Offered != 5 || st.Admitted != 5 || st.Shed != 0 {
		t.Errorf("offered/admitted/shed = %d/%d/%d, want 5/5/0", st.Offered, st.Admitted, st.Shed)
	}
	// Lost work is a tenant-visible failure.
	if ten := st.Tenants["alpha"]; ten == nil || ten.Failed != 4 {
		t.Errorf("tenant alpha failed = %+v, want 4", ten)
	}
	if st.SojournUS.N() != st.Completed {
		t.Errorf("sojourn samples %d ≠ completed %d (lost work must not be sampled)", st.SojournUS.N(), st.Completed)
	}
}

// repairRun drives one service through a CRC upset and a repairing re-
// dispatch, returning the drained stats.
func repairRun(t *testing.T, repair string) ServiceStats {
	t.Helper()
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{
		Repair:    repair,
		UpsetSeed: 7,
	})
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	// Load fir128 onto RP1 and let it finish: the image is resident.
	if _, err := s.Offer(workload.Request{At: 0, RP: "RP1", ASP: "fir128"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("first request still outstanding at 40ms")
	}
	// An SEU flips frames in the resident region and the read-back CRC
	// verdict raises the alarm.
	raised, err := s.RaiseCRCUpset(2)
	if err != nil {
		t.Fatal(err)
	}
	if !raised {
		t.Fatal("upset not raised against a resident image")
	}
	// The next hit on the alarmed RP must repair before computing.
	if _, err := s.Offer(workload.Request{At: 40 * sim.Millisecond, RP: "RP1", ASP: "fir128"}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.CRCAlarms != 1 {
		t.Errorf("%s: alarms = %d, want 1", repair, st.CRCAlarms)
	}
	if st.Repairs != 1 {
		t.Errorf("%s: repairs = %d, want 1", repair, st.Repairs)
	}
	if st.RepairTime <= 0 {
		t.Errorf("%s: repair time = %v, want > 0", repair, st.RepairTime)
	}
	if st.Completed != 2 {
		t.Errorf("%s: completed = %d, want 2 (repair must not drop the request)", repair, st.Completed)
	}
	return st
}

// TestScrubRepairBeatsFullReload is the paper's scrubbing argument measured
// through the service: repairing a 2-frame upset by frame-wise scrub must
// cost far less reconfiguration time than reloading the whole partition.
func TestScrubRepairBeatsFullReload(t *testing.T) {
	scrub := repairRun(t, "scrub")
	reload := repairRun(t, "reload")
	if scrub.RepairTime >= reload.RepairTime {
		t.Errorf("scrub repair %v must beat full reload %v", scrub.RepairTime, reload.RepairTime)
	}
	// A 2-frame scrub against a multi-hundred-frame partition should be at
	// least an order of magnitude cheaper.
	if 10*scrub.RepairTime >= reload.RepairTime {
		t.Errorf("scrub repair %v not ≫ cheaper than reload %v", scrub.RepairTime, reload.RepairTime)
	}
}

// TestUpsetAgainstEmptyBoard: nothing resident, nothing to corrupt.
func TestUpsetAgainstEmptyBoard(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{})
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	raised, err := s.RaiseCRCUpset(1)
	if err != nil {
		t.Fatal(err)
	}
	if raised {
		t.Error("upset raised against a board with nothing resident")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
