package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"dasesim/internal/kernels"
)

// The fmt-based trace generator and CSV writer that PoissonArrivals and
// WriteCSV replaced, kept as the references they must match field for
// field and byte for byte.

func referencePoissonArrivals(seed uint64, tenants []TenantSpec, rates []float64, profiles []kernels.Profile, intervals, maxMinSMs int, work uint64) []Arrival {
	var arrivals []Arrival
	n := 0
	for iv := 0; iv < intervals; iv++ {
		for ti := range tenants {
			s := seed ^ uint64(iv+1)*0x9e3779b97f4a7c15 ^ uint64(ti+1)*0xc2b2ae3d27d4eb4f
			for k := 0; k < poissonDraw(&s, rates[ti]); k++ {
				h := mix64(&s)
				arrivals = append(arrivals, Arrival{
					Interval: iv,
					Job: JobSpec{
						ID:     fmt.Sprintf("%s-%04d", tenants[ti].Name, n),
						Tenant: tenants[ti].Name,
						Kernel: &profiles[int(h%uint64(len(profiles)))],
						MinSMs: 1 + int((h>>32)%uint64(maxMinSMs)),
						Work:   work,
					},
				})
				n++
			}
		}
	}
	return arrivals
}

func referenceWriteCSV(w io.Writer, rec []IntervalRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "interval,tenant,quota_sms,deserved_sms,allocated_sms,running,queued,window_share,over_quota,mean_slowdown")
	for i := range rec {
		r := &rec[i]
		for j := range r.Tenants {
			t := &r.Tenants[j]
			fmt.Fprintf(bw, "%d,%s,%d,%.3f,%d,%d,%d,%.4f,%t,%.4f\n",
				r.Interval, t.Name, t.QuotaSMs, t.DeservedSMs, t.AllocatedSMs,
				t.Running, t.Queued, t.WindowShare, t.OverQuota, t.MeanSlowdown)
		}
		fmt.Fprintf(bw, "%d,_idle,0,0.000,%d,0,0,0.0000,false,0.0000\n", r.Interval, r.IdleSMs)
	}
	return bw.Flush()
}

// TestPoissonArrivalsMatchesReference compares every field of every arrival
// with the reference over seeds, rates, lengths, SM demands and tenant
// counts, including a trace long enough for five-digit job IDs.
func TestPoissonArrivalsMatchesReference(t *testing.T) {
	profiles := []kernels.Profile{testProfile(t, "BS"), testProfile(t, "CT"), testProfile(t, "QR")}
	one := []TenantSpec{{Name: "solo"}}
	four := []TenantSpec{{Name: "astra"}, {Name: "b"}, {Name: ""}, {Name: "delos,x"}}
	fiveDigits := false
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		for _, rate := range []float64{0, 0.35, 1, 6} {
			for _, intervals := range []int{0, 1, 2000} {
				for _, maxMinSMs := range []int{1, 8} {
					for _, tenants := range [][]TenantSpec{one, four} {
						rates := make([]float64, len(tenants))
						for i := range rates {
							rates[i] = rate
						}
						got := PoissonArrivals(seed, tenants, rates, profiles, intervals, maxMinSMs, 400_000)
						want := referencePoissonArrivals(seed, tenants, rates, profiles, intervals, maxMinSMs, 400_000)
						if len(got) != len(want) || len(got) != cap(got) {
							t.Fatalf("seed %d rate %v intervals %d maxMinSMs %d tenants %d: %d arrivals (cap %d), reference %d",
								seed, rate, intervals, maxMinSMs, len(tenants), len(got), cap(got), len(want))
						}
						for i := range want {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("seed %d rate %v intervals %d maxMinSMs %d tenants %d: arrival %d = %+v, reference %+v",
									seed, rate, intervals, maxMinSMs, len(tenants), i, got[i], want[i])
							}
						}
						fiveDigits = fiveDigits || len(want) > 10_000
					}
				}
			}
		}
	}
	if !fiveDigits {
		t.Fatal("no trace in the grid crosses job 10,000")
	}
}

// TestPoissonArrivalsAllocs requires the `fleet-model` trace to cost the
// same three allocations, the arrivals, their IDs and the one copy of the
// profiles their kernels point into, at any length.
func TestPoissonArrivalsAllocs(t *testing.T) {
	profiles := fleetModelProfiles(t)
	allocs := func(intervals int) float64 {
		return testing.AllocsPerRun(5, func() {
			PoissonArrivals(1, fleetModelTenants, fleetModelRates, profiles, intervals, 8, 400_000)
		})
	}
	short, long := allocs(100), allocs(10_000)
	if short != long || long > 3 {
		t.Fatalf("PoissonArrivals made %v allocations at 100 intervals and %v at 10,000, want the same ≤ 3", short, long)
	}
}

// TestWriteCSVAllocs requires WriteCSV's allocations not to grow with the
// number of rows.
func TestWriteCSVAllocs(t *testing.T) {
	rec := syntheticRecords(2000)
	allocs := func(rec []IntervalRecord) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteCSV(io.Discard, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(rec[:10]), allocs(rec)
	if short != long {
		t.Fatalf("WriteCSV made %v allocations for 10 intervals and %v for 2,000", short, long)
	}
}

// syntheticRecords is an n-interval history of the fleet-model's four
// tenants with varied counts and shares.
func syntheticRecords(n int) []IntervalRecord {
	names := []string{"astra", "borei", "ceres", "delos"}
	rec := make([]IntervalRecord, n)
	for i := range rec {
		rec[i] = IntervalRecord{Interval: int32(i), IdleSMs: int32(i % 17), Tenants: make([]TenantRecord, len(names))}
		for j, name := range names {
			x := float64(i*len(names)+j) / 7
			rec[i].Tenants[j] = TenantRecord{Name: name, QuotaSMs: int32(32 * (j + 1)), DeservedSMs: x,
				AllocatedSMs: int32((i + j) % 64), Running: int32(j), Queued: int32(i % 5), WindowShare: 1 / (1 + x),
				OverQuota: (i+j)%3 == 0, MeanSlowdown: 1 + x/100}
		}
	}
	return rec
}

// FuzzWriteCSV holds WriteCSV to the fmt reference, byte for byte, on one-
// and two-interval histories built from the fuzzed fields.
func FuzzWriteCSV(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{0, negZero, 1, -1, 0.0005, 0.00049999, 0.00005, 0.00004999, 2.5, 1e21, -1e21,
		1e300, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(0, "astra", 96, 3, 1, 2, 7, v, v, v, false, uint8(1))
	}
	f.Add(-1, "a,b", -96, -3, -1, -2, -7, 0.5, -0.5, negZero, true, uint8(2))
	f.Add(math.MaxInt32, "", math.MinInt32, math.MaxInt32, 0, 0, 0, 1e21, math.NaN(), math.Inf(1), true, uint8(3))
	f.Fuzz(func(t *testing.T, interval int, name string, quota, alloc, running, queued, idle int,
		deserved, share, slowdown float64, over bool, tenants uint8) {
		rec := make([]IntervalRecord, 2)
		for i := range rec {
			rec[i] = IntervalRecord{Interval: int32(interval + i), IdleSMs: int32(idle - i)}
			for j := range int(tenants % 4) {
				rec[i].Tenants = append(rec[i].Tenants, TenantRecord{Name: name[len(name)*j/4:],
					QuotaSMs: int32(quota), DeservedSMs: deserved, AllocatedSMs: int32(alloc - j), Running: int32(running),
					Queued: int32(queued), WindowShare: share, OverQuota: over != (j == 1), MeanSlowdown: slowdown})
			}
		}
		for _, r := range [][]IntervalRecord{nil, rec[:1], rec} {
			var got, want bytes.Buffer
			if err := WriteCSV(&got, r); err != nil {
				t.Fatal(err)
			}
			if err := referenceWriteCSV(&want, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteCSV:\n%s\nreference:\n%s", got.Bytes(), want.Bytes())
			}
		}
	})
}

// BenchmarkPoissonArrivals generates the `fleet-model` arrival trace for a
// 2,000-interval prefix.
func BenchmarkPoissonArrivals(b *testing.B) {
	profiles := fleetModelProfiles(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PoissonArrivals(1, fleetModelTenants, fleetModelRates, profiles, 2000, 8, 400_000)
	}
}

// BenchmarkWriteCSV writes the history of the `fleet-model` shape's first
// 2,000 intervals on the model engine.
func BenchmarkWriteCSV(b *testing.B) {
	sc := fleetModelScenario(b, 2000)
	f, err := sc.Run()
	if err != nil {
		b.Fatal(err)
	}
	rec := f.Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}
