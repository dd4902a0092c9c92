package kernels

import (
	"fmt"
	"testing"
)

// computeRunProfiles is every Table III kernel plus generated shapes at the
// edges of ComputeRun's two stop conditions: MemFrac at and near 0 and 1
// (the accumulator never / always / almost never / almost always crosses 1)
// and BarrierEvery 0, 1 (every instruction is a barrier) and 7, over streams
// from one instruction up.
func computeRunProfiles() []Profile {
	ps := All()
	base, _ := ByAbbr("SB")
	for _, mf := range []float64{0, 1, 1e-4, 0.999, 0.2, 0.3} {
		for _, be := range []int{0, 1, 7} {
			for _, n := range []int{1, 2, 6, 7, 8, 50, 1000} {
				p := base
				p.Abbr = fmt.Sprintf("mf%g-be%d-n%d", mf, be, n)
				p.MemFrac, p.BarrierEvery, p.InstPerWarp = mf, be, n
				ps = append(ps, p)
			}
		}
	}
	return ps
}

// TestComputeRunMatchesNext: a stream drained by Next alone and a twin
// drained by ComputeRun-then-Next yield the same instruction sequence — the
// run's (n, lat) expanded into n compute ops — with the same Remaining() at
// every run boundary, and ComputeRun on the exhausted stream returns 0.
func TestComputeRunMatchesNext(t *testing.T) {
	for _, p := range computeRunProfiles() {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Abbr, err)
		}
		for warp := 0; warp < 2; warp++ {
			byNext := NewWarpStream(&p, 1<<40, 9, warp, 7)
			byRun := NewWarpStream(&p, 1<<40, 9, warp, 7)
			var want, got Op
			for i := 0; ; {
				n, lat := byRun.ComputeRun()
				for k := 0; k < n; k++ {
					if !byNext.Next(&want) {
						t.Fatalf("%s: run of %d at instruction %d outlives the stream", p.Abbr, n, i)
					}
					if want.Mem || want.Barrier || want.ComputeLat != lat || want.NLines != 0 {
						t.Fatalf("%s: instruction %d is %+v, ComputeRun called it compute with latency %d", p.Abbr, i, want, lat)
					}
					i++
				}
				if a, b := byRun.Remaining(), byNext.Remaining(); a != b {
					t.Fatalf("%s: after a run of %d, Remaining() %d, want %d", p.Abbr, n, a, b)
				}
				okWant, okGot := byNext.Next(&want), byRun.Next(&got)
				if okWant != okGot {
					t.Fatalf("%s: instruction %d: Next %v after ComputeRun, %v alone", p.Abbr, i, okGot, okWant)
				}
				if !okWant {
					break
				}
				if !want.Mem && !want.Barrier {
					t.Fatalf("%s: instruction %d is compute, so the run of %d before it was not maximal", p.Abbr, i, n)
				}
				if got != want {
					t.Fatalf("%s: instruction %d: %+v after ComputeRun, %+v alone", p.Abbr, i, got, want)
				}
				i++
			}
			if n, _ := byRun.ComputeRun(); n != 0 || byRun.Remaining() != 0 {
				t.Fatalf("%s: exhausted stream: ComputeRun %d, Remaining %d", p.Abbr, n, byRun.Remaining())
			}
		}
	}
}
