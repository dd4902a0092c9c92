package sched

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
)

// TestDASEQoSProtectsCriticalApp co-runs a cache-sensitive kernel (which
// slows >2x under the even split) with a bandwidth hog and requires the QoS
// policy to pull its measured slowdown down toward the target.
func TestDASEQoSProtectsCriticalApp(t *testing.T) {
	if testing.Short() {
		t.Skip("slow policy run")
	}
	cfg := config.Default()
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	ps := []kernels.Profile{va, ct}
	cycles := uint64(600_000)

	aloneIPC := make([]float64, 2)
	for i, prof := range ps {
		res, err := sim.RunAlone(cfg, prof, cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		aloneIPC[i] = res.Apps[0].IPC
	}

	even, err := Run(cfg, ps, []int{8, 8}, cycles, 1, Even{})
	if err != nil {
		t.Fatal(err)
	}
	evenSlow := metrics.Slowdown(aloneIPC[1], even.Apps[1].IPC)

	pol := NewDASEQoS(1, 1.6) // protect CT with a 1.6x slowdown budget
	qos, err := Run(cfg, ps, []int{8, 8}, cycles, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	qosSlow := metrics.Slowdown(aloneIPC[1], qos.Apps[1].IPC)

	t.Logf("CT slowdown: even=%.2f qos=%.2f (target 1.6), reallocations=%d violations=%d",
		evenSlow, qosSlow, pol.Reallocations, pol.Violations)
	if pol.Reallocations == 0 {
		t.Fatal("QoS policy never reallocated")
	}
	if qosSlow >= evenSlow {
		t.Fatalf("QoS policy did not help the critical app: even=%.2f qos=%.2f", evenSlow, qosSlow)
	}
}

func TestDASEQoSName(t *testing.T) {
	if NewDASEQoS(0, 2).Name() != "DASE-QoS" {
		t.Fatal("policy name")
	}
}

func TestDASEQoSIgnoresBadCriticalIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	pol := NewDASEQoS(5, 1.5) // out of range: must be a no-op, not a panic
	res, err := Run(cfg, []kernels.Profile{qr, bg}, []int{8, 8}, 30_000, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Reallocations != 0 {
		t.Fatal("reallocated with an invalid critical app")
	}
	if len(res.Apps) != 2 {
		t.Fatal("run lost apps")
	}
}
