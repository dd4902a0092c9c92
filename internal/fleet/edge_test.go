package fleet

import (
	"errors"
	"testing"

	"dasesim/internal/config"
)

// TestFleetEdgeCases drives the scheduler through the boundary
// configurations table-style: every case runs a small scenario (sweeping
// checkInvariants after every Tick) and then applies both the shared
// invariants and a case-specific check.
func TestFleetEdgeCases(t *testing.T) {
	gpu := config.Default()
	cases := []struct {
		name  string
		run   func(t *testing.T) *Fleet
		check func(t *testing.T, f *Fleet)
	}{
		{
			name: "zero-quota tenant runs on idle capacity",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(2,
					TenantSpec{Name: "paid", QuotaSMs: 32, Weight: 1},
					TenantSpec{Name: "free", QuotaSMs: 0, Weight: 0},
				))
				if err != nil {
					t.Fatal(err)
				}
				bs := testKernel(t, "BS")
				if err := f.Submit(JobSpec{ID: "f0", Tenant: "free", Kernel: bs, MinSMs: 4, Work: 1 << 40}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					tickChecked(t, f)
				}
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				// The fleet is otherwise idle, so work conservation must let
				// the zero-quota tenant run despite deserving nothing.
				last := f.Records()[len(f.Records())-1]
				for _, tr := range last.Tenants {
					if tr.Name == "free" {
						if tr.DeservedSMs != 0 {
							t.Errorf("zero-quota tenant deserves %v SMs", tr.DeservedSMs)
						}
						if tr.AllocatedSMs == 0 {
							t.Error("zero-quota tenant starved on an idle fleet")
						}
						if !tr.OverQuota {
							t.Error("a running zero-quota tenant must read as over quota")
						}
					}
				}
			},
		},
		{
			name: "single tenant owns the whole fleet",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(3, TenantSpec{Name: "solo", QuotaSMs: 3 * gpu.NumSMs}))
				if err != nil {
					t.Fatal(err)
				}
				bs := testKernel(t, "BS")
				for i := 0; i < 3; i++ {
					if err := f.Submit(JobSpec{ID: string(rune('a' + i)), Tenant: "solo", Kernel: bs, MinSMs: 2, Work: 1 << 40}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 4; i++ {
					tickChecked(t, f)
				}
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				last := f.Records()[len(f.Records())-1]
				if got := last.Tenants[0].DeservedSMs; got != float64(f.Capacity()) {
					t.Errorf("solo tenant deserves %v, want the whole fleet %d", got, f.Capacity())
				}
				// Three 2-SM jobs spread over three GPUs, each expanded to the
				// full GPU: nothing idles while the sole tenant has work.
				if last.IdleSMs != 0 {
					t.Errorf("idle SMs %d with a backlogged sole tenant", last.IdleSMs)
				}
				if int(last.Tenants[0].AllocatedSMs) != f.Capacity() {
					t.Errorf("solo tenant allocated %d of %d", last.Tenants[0].AllocatedSMs, f.Capacity())
				}
			},
		},
		{
			name: "quota sum exceeding capacity scales deserved shares",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(1,
					TenantSpec{Name: "a", QuotaSMs: 3 * gpu.NumSMs},
					TenantSpec{Name: "b", QuotaSMs: gpu.NumSMs},
				))
				if err != nil {
					t.Fatal(err)
				}
				tickChecked(t, f)
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				r := f.Records()[0]
				// 3:1 quotas over a 16-SM fleet scale to 12 and 4 deserved.
				if a := r.Tenants[0].DeservedSMs; a != 12 {
					t.Errorf("tenant a deserves %v, want 12", a)
				}
				if b := r.Tenants[1].DeservedSMs; b != 4 {
					t.Errorf("tenant b deserves %v, want 4", b)
				}
			},
		},
		{
			name: "tenant joins and leaves mid-run",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(2, TenantSpec{Name: "base", QuotaSMs: 16, Weight: 1}))
				if err != nil {
					t.Fatal(err)
				}
				bs := testKernel(t, "BS")
				if err := f.Submit(JobSpec{ID: "b0", Tenant: "base", Kernel: bs, MinSMs: 4, Work: 1 << 40}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					tickChecked(t, f)
				}
				if err := f.AddTenant(TenantSpec{Name: "guest", QuotaSMs: 8, Weight: 1}); err != nil {
					t.Fatal(err)
				}
				for _, id := range []string{"g0", "g1"} {
					if err := f.Submit(JobSpec{ID: id, Tenant: "guest", Kernel: bs, MinSMs: 4, Work: 1 << 40}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 2; i++ {
					tickChecked(t, f)
				}
				if err := f.RemoveTenant("guest"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					tickChecked(t, f)
				}
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				// The guest's running jobs drain (Work is effectively
				// infinite, so they are still resident and still recorded).
				last := f.Records()[len(f.Records())-1]
				var sawGuest bool
				for _, tr := range last.Tenants {
					if tr.Name == "guest" {
						sawGuest = true
						if !tr.Departed {
							t.Error("guest not marked departed")
						}
						if tr.Queued != 0 {
							t.Errorf("departed guest still queues %d jobs", tr.Queued)
						}
						if tr.Running == 0 {
							t.Error("departed guest's running jobs vanished instead of draining")
						}
					}
				}
				if !sawGuest {
					t.Error("draining guest missing from the record")
				}
			},
		},
		{
			name: "oversized job rejected without wedging the queue",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(1, TenantSpec{Name: "a", QuotaSMs: 8}))
				if err != nil {
					t.Fatal(err)
				}
				bs := testKernel(t, "BS")
				err = f.Submit(JobSpec{ID: "huge", Tenant: "a", Kernel: bs, MinSMs: gpu.NumSMs + 1, Work: 100})
				if !errors.Is(err, ErrJobTooLarge) {
					t.Fatalf("oversized submit: %v, want ErrJobTooLarge", err)
				}
				if err := f.Submit(JobSpec{ID: "small", Tenant: "a", Kernel: bs, MinSMs: 2, Work: 1 << 40}); err != nil {
					t.Fatal(err)
				}
				tickChecked(t, f)
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				if f.RunningJobs() != 1 || f.QueuedJobs() != 0 {
					t.Errorf("after reject: running=%d queued=%d, want the small job placed",
						f.RunningJobs(), f.QueuedJobs())
				}
			},
		},
		{
			name: "job without a kernel rejected without wedging the queue",
			run: func(t *testing.T) *Fleet {
				f, err := New(testConfig(1, TenantSpec{Name: "a", QuotaSMs: 8}))
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Submit(JobSpec{ID: "bare", Tenant: "a", MinSMs: 2, Work: 100}); err == nil {
					t.Fatal("Submit accepted a job with a nil Kernel")
				}
				if err := f.Submit(JobSpec{ID: "small", Tenant: "a", Kernel: testKernel(t, "BS"), MinSMs: 2, Work: 1 << 40}); err != nil {
					t.Fatal(err)
				}
				tickChecked(t, f)
				return f
			},
			check: func(t *testing.T, f *Fleet) {
				if f.RunningJobs() != 1 || f.QueuedJobs() != 0 {
					t.Errorf("after reject: running=%d queued=%d, want the small job placed",
						f.RunningJobs(), f.QueuedJobs())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.run(t)
			if err := CheckAll(f.Records(), f.Capacity(), gpu.NumSMs); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			tc.check(t, f)
		})
	}
}
