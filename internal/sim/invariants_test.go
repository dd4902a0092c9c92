package sim

import (
	"errors"
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
)

func checkedGPU(t *testing.T) *GPU {
	t.Helper()
	g, err := New(config.Default(), twoApps(t), []int{8, 8}, 1, WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func expectViolation(t *testing.T, g *GPU, check string) {
	t.Helper()
	err := g.CheckInvariantsNow()
	var v *InvariantViolation
	if !errors.As(err, &v) {
		t.Fatalf("expected an InvariantViolation, got %v", err)
	}
	if v.Check != check {
		t.Fatalf("violation check %q (%s), want %q", v.Check, v.Detail, check)
	}
	if msg := v.Error(); !strings.Contains(msg, check) || !strings.Contains(msg, v.Detail) {
		t.Fatalf("violation message %q omits its check or detail", msg)
	}
}

// TestInvariantChecksCleanRun runs a real two-app workload with the periodic
// sweep enabled across an interval boundary: the engine must hold every
// invariant on states it actually reaches.
func TestInvariantChecksCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	g := checkedGPU(t)
	if !g.InvariantChecksEnabled() {
		t.Fatal("InvariantChecksEnabled false after WithInvariantChecks")
	}
	g.Run(60_000)
	if err := g.CheckInvariantsNow(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsNowRequiresOption documents that the sweep is opt-in.
func TestCheckInvariantsNowRequiresOption(t *testing.T) {
	g, err := New(config.Default(), twoApps(t), []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.InvariantChecksEnabled() || !checkedGPU(t).InvariantChecksEnabled() {
		t.Fatal("InvariantChecksEnabled does not follow WithInvariantChecks")
	}
	if err := g.CheckInvariantsNow(); err == nil || !strings.Contains(err.Error(), "WithInvariantChecks") {
		t.Fatalf("expected a not-enabled error, got %v", err)
	}
}

// plantedMiss is partition 0 of a fresh checked GPU after two reads of one
// line went through its L2: head missed and waits in toMC as the MSHR's
// first waiter, merged merged onto it and lives only in the waiter list. The
// sweep accepts that state; each case of TestInvariantSweepViolations breaks
// one thing about it.
type plantedMiss struct {
	g            *GPU
	p            *partition
	slot         int
	head, merged *memreq.Request
}

func newPlantedMiss(t *testing.T) *plantedMiss {
	t.Helper()
	g := checkedGPU(t)
	m := &plantedMiss{g: g, p: g.parts[0], head: g.pool.Get(), merged: g.pool.Get()}
	const addr = 0x12340080
	for _, r := range []*memreq.Request{m.head, m.merged} {
		r.App, r.SM, r.Addr, r.Kind = 0, 0, addr, memreq.Read
		if !m.p.access(r, 0) {
			t.Fatal("L2 refused the read")
		}
	}
	m.slot = m.p.l2.MSHRSlot(addr)
	if m.slot < 0 || len(m.p.waiters[m.slot]) != 2 || len(m.p.toMC) != 1 {
		t.Fatalf("no merged miss: slot %d, toMC %d", m.slot, len(m.p.toMC))
	}
	m.sweepClean(t)
	return m
}

// sweepClean requires a passing sweep; before a rollback it also records the
// baselines the monotonic checks compare against.
func (m *plantedMiss) sweepClean(t *testing.T) {
	t.Helper()
	if err := m.g.CheckInvariantsNow(); err != nil {
		t.Fatalf("clean state fails the sweep: %v", err)
	}
}

// stray queues a fresh request toward DRAM.
func (m *plantedMiss) stray() *memreq.Request {
	r := m.g.pool.Get()
	m.p.toMC = append(m.p.toMC, r)
	return r
}

// TestInvariantSweepViolations plants one broken state per sweep branch and
// requires the sweep to name the right invariant family.
func TestInvariantSweepViolations(t *testing.T) {
	cases := []struct {
		name, check string
		plant       func(t *testing.T, m *plantedMiss)
	}{
		{"nil request in transport", "conservation", func(t *testing.T, m *plantedMiss) {
			m.p.toMC = append(m.p.toMC, nil)
		}},
		{"MSHR head in no transport", "conservation", func(t *testing.T, m *plantedMiss) {
			m.p.toMC = m.p.toMC[:0]
		}},
		{"MSHR tracks another line", "mshr-agreement", func(t *testing.T, m *plantedMiss) {
			m.head.Addr += 128
		}},
		{"merge count disagrees", "mshr-agreement", func(t *testing.T, m *plantedMiss) {
			m.p.waiters[m.slot] = m.p.waiters[m.slot][:1]
		}},
		{"merged waiter also in transport", "conservation", func(t *testing.T, m *plantedMiss) {
			m.p.toMC = append(m.p.toMC, m.merged)
		}},
		{"merged waiter on another line", "mshr-agreement", func(t *testing.T, m *plantedMiss) {
			m.merged.Addr += 128
		}},
		{"merged waiter recycled", "pool-hygiene", func(t *testing.T, m *plantedMiss) {
			m.g.pool.Put(m.merged)
			*m.merged = *m.head // written after Put, so only ownership gives it away
		}},
		{"allocated MSHR with no waiters", "mshr-agreement", func(t *testing.T, m *plantedMiss) {
			m.p.waiters[m.slot] = m.p.waiters[m.slot][:0]
		}},
		{"request of an unknown app", "conservation", func(t *testing.T, m *plantedMiss) {
			m.stray().App = 7
		}},
		{"request from an unknown SM", "conservation", func(t *testing.T, m *plantedMiss) {
			m.stray().SM = len(m.g.sms)
		}},
		{"internal request that is not a write-back", "conservation", func(t *testing.T, m *plantedMiss) {
			m.stray().SM = -1
		}},
		{"free request written after Put", "pool-hygiene", func(t *testing.T, m *plantedMiss) {
			r := m.g.pool.Get()
			m.g.pool.Put(r)
			r.Addr = 0x40
		}},
		{"cycle went backward", "monotonic", func(t *testing.T, m *plantedMiss) {
			m.g.cycle = 10
			m.sweepClean(t)
			m.g.cycle--
		}},
		{"crossbar traffic went backward", "monotonic", func(t *testing.T, m *plantedMiss) {
			m.g.ic.RepSent = 10
			m.sweepClean(t)
			m.g.ic.RepSent--
		}},
		{"refresh count went backward", "monotonic", func(t *testing.T, m *plantedMiss) {
			m.p.mc.Refreshes = 10
			m.sweepClean(t)
			m.p.mc.Refreshes--
		}},
		{"retired instructions went backward", "monotonic", func(t *testing.T, m *plantedMiss) {
			m.g.apps[1].Instructions = 10
			m.sweepClean(t)
			m.g.apps[1].Instructions--
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newPlantedMiss(t)
			tc.plant(t, m)
			expectViolation(t, m.g, tc.check)
		})
	}
}

// The tests below plant deliberately broken states — the bug classes the
// validation layer exists to catch — and verify the sweep reports each one
// with the right invariant family.

func TestInvariantChecksDetectDuplicateTransport(t *testing.T) {
	g := checkedGPU(t)
	g.Run(1_000)
	r := g.pool.Get()
	r.App, r.SM = 0, 0
	p := g.parts[0]
	p.toMC = append(p.toMC, r, r) // the bug: one request in two transport slots
	expectViolation(t, g, "conservation")
}

func TestInvariantChecksDetectUseAfterPut(t *testing.T) {
	g := checkedGPU(t)
	g.Run(1_000)
	r := g.pool.Get()
	r.App, r.SM = 0, 0
	p := g.parts[0]
	p.toMC = append(p.toMC, r)
	g.pool.Put(r) // the bug: recycled while still queued toward DRAM
	expectViolation(t, g, "pool-hygiene")
}

func TestInvariantChecksDetectOrphanWaiters(t *testing.T) {
	g := checkedGPU(t) // fresh GPU: every L2 MSHR slot is unallocated
	r := g.pool.Get()
	r.App, r.SM, r.Addr = 0, 0, 0x12340080
	p := g.parts[0]
	p.toMC = append(p.toMC, r)
	p.waiters[0] = append(p.waiters[0][:0], r) // the bug: waiters without an MSHR
	expectViolation(t, g, "mshr-agreement")
}

func TestInvariantChecksDetectCounterRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	g := checkedGPU(t)
	g.Run(10_000) // real traffic establishes non-zero sweep baselines
	if g.ic.ReqSent == 0 {
		t.Fatal("workload produced no interconnect traffic")
	}
	g.ic.ReqSent = 0 // the bug: a monotonic counter went backward
	expectViolation(t, g, "monotonic")
}

// TestStepPanicsOnViolation verifies the periodic sweep inside step surfaces
// a violation as a panic, so a checked simulation cannot silently keep
// running on corrupted state.
func TestStepPanicsOnViolation(t *testing.T) {
	g := checkedGPU(t)
	g.Run(1_000)
	r := g.pool.Get()
	r.App, r.SM = 0, 0
	p := g.parts[0]
	p.toMC = append(p.toMC, r, r)
	defer func() {
		v, ok := recover().(*InvariantViolation)
		if !ok {
			t.Fatalf("expected an *InvariantViolation panic, got %v", v)
		}
		if v.Check != "conservation" {
			t.Fatalf("panic check %q, want conservation", v.Check)
		}
	}()
	g.Run(checkEveryCycles) // guarantees at least one sweep
	t.Fatal("step never swept the corrupted state")
}
