package sched

import (
	"context"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

func TestTimeSliceRotates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow policy run")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	ps := []kernels.Profile{qr, bg}

	pol := NewTimeSlice(2)
	if pol.Name() != "TimeSlice" {
		t.Fatal("name")
	}
	res, err := Run(context.Background(), cfg, ps, []int{16, 0}, 100_000, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Switches < 3 {
		t.Fatalf("only %d context switches in 10 intervals with slice 2", pol.Switches)
	}
	// Both apps must make progress across their slices.
	for i, a := range res.Apps {
		if a.Instructions == 0 {
			t.Fatalf("app %d never ran under temporal multitasking", i)
		}
	}
	// And the GPU should never host both apps at once for long: check the
	// final snapshot has one app with (almost) everything.
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Apps[0].SMs > 0 && last.Apps[1].SMs > 0 {
		// Mid-drain overlap is possible; require a clear majority holder.
		if last.Apps[0].SMs > 4 && last.Apps[1].SMs > 4 {
			t.Fatalf("temporal multitasking left both apps resident: %d/%d SMs",
				last.Apps[0].SMs, last.Apps[1].SMs)
		}
	}
}

func TestTimeSliceMinimumSlice(t *testing.T) {
	if NewTimeSlice(0).SliceIntervals != 1 {
		t.Fatal("slice length must clamp to >= 1")
	}
}
