package estimate

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// The tests here hold sim.AppFields' DASE bits to what the model and the
// wire do, and check DASE's metamorphic properties on real intervals, both
// in process and through Service.Process.

var (
	realOnce  sync.Once
	realSnaps []sim.IntervalSnapshot
	realErr   error
)

// realSnapshots returns the interval snapshots of two short even-split
// runs: the memory-bound SB+SD pair and the compute-leaning CT+QR+SN+BG
// quad.
func realSnapshots(t *testing.T) []sim.IntervalSnapshot {
	t.Helper()
	realOnce.Do(func() {
		for _, mix := range [][]string{{"SB", "SD"}, {"CT", "QR", "SN", "BG"}} {
			var ps []kernels.Profile
			for _, abbr := range mix {
				p, _ := kernels.ByAbbr(abbr)
				ps = append(ps, p)
			}
			cfg := config.Default()
			res, err := sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), 100_000, 1)
			if err != nil {
				realErr = err
				return
			}
			realSnaps = append(realSnaps, res.Snapshots...)
		}
	})
	if realErr != nil {
		t.Fatal(realErr)
	}
	return realSnaps
}

// counter returns AppInterval's field behind row j of sim.AppFields
// (TestAppFieldsCoverAppInterval holds row j to field j+1).
func counter(a *sim.AppInterval, j int) reflect.Value {
	return reflect.ValueOf(a).Elem().Field(j + 1)
}

// withApps returns snap with its own copy of apps.
func withApps(snap *sim.IntervalSnapshot, apps []sim.AppInterval) *sim.IntervalSnapshot {
	s := *snap
	s.Apps = apps
	return &s
}

// TestNonDASEFieldsDoNotMoveDASE: a counter not marked DASE must not reach
// the model — perturbing it leaves every estimate bit-identical.
func TestNonDASEFieldsDoNotMoveDASE(t *testing.T) {
	dase := core.New(core.Options{})
	for si, snap := range realSnapshots(t) {
		want := dase.EstimateDetailed(&snap)
		for j, row := range sim.AppFields {
			if row.DASE {
				continue
			}
			apps := slices.Clone(snap.Apps)
			for i := range apps {
				v := counter(&apps[i], j)
				switch v.Kind() {
				case reflect.Int:
					v.SetInt(v.Int()*3 + 7)
				case reflect.Uint64:
					v.SetUint(v.Uint()*3 + 7)
				case reflect.Float64:
					v.SetFloat(v.Float()*3 + 7)
				}
			}
			got := dase.EstimateDetailed(withApps(&snap, apps))
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("snapshot %d: perturbing %s moved app %d's estimate:\n got %+v\nwant %+v",
						si, row.Name, i, got[i], want[i])
				}
			}
		}
	}
}

// distinctCounters returns two apps whose every counter holds a distinct
// non-zero value the validator accepts.
func distinctCounters() []sim.AppInterval {
	apps := make([]sim.AppInterval, 2)
	for i := range apps {
		apps[i].App = memreq.AppID(i)
		for j := range sim.AppFields {
			v := counter(&apps[i], j)
			switch v.Kind() {
			case reflect.Int:
				v.SetInt(int64(1 + j + i))
			case reflect.Uint64:
				v.SetUint(uint64(1000*(j+1) + i))
			case reflect.Float64:
				v.SetFloat(1/float64(j+3) + float64(i)/1024)
			}
		}
	}
	return apps
}

// TestDASEFieldsSurviveTheWire: every DASE counter crosses AppendRequest →
// Service.Process's decoder bit for bit, and no other counter crosses.
func TestDASEFieldsSurviveTheWire(t *testing.T) {
	svc := NewService(Options{})
	sc := svc.Get()
	defer svc.Put(sc)
	req := sampleRequest(5)
	req.Apps = distinctCounters()
	sc.Body = AppendRequest(sc.Body[:0], &req)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("Process: %v (body %s)", err, sc.Body)
	}
	got := sc.reqs[0].Apps
	for i := range req.Apps {
		if got[i].App != req.Apps[i].App {
			t.Errorf("app %d decoded as App %d", i, got[i].App)
		}
		for j, row := range sim.AppFields {
			sent, read := string(row.Append(nil, &req.Apps[i], -1)), string(row.Append(nil, &got[i], -1))
			switch {
			case row.DASE && read != sent:
				t.Errorf("app %d: %s sent %s, decoded %s", i, row.Name, sent, read)
			case !row.DASE && !counter(&got[i], j).IsZero():
				t.Errorf("app %d: %s is not DASE but decoded as %s", i, row.Name, read)
			}
		}
	}
}

// TestAppendRequestKeysAreDASERows: the app keys AppendRequest writes, read
// back through encoding/json, are exactly the DASE rows' names.
func TestAppendRequestKeysAreDASERows(t *testing.T) {
	req := sampleRequest(0)
	req.Apps = distinctCounters()
	var body struct {
		Apps []map[string]json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(AppendRequest(nil, &req), &body); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range sim.AppFields {
		if row.DASE {
			want = append(want, row.Name)
		}
	}
	sort.Strings(want)
	for i, app := range body.Apps {
		var got []string
		for k := range app {
			got = append(got, k)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("app %d keys %v, want %v", i, got, want)
		}
	}
}

// served posts snap through Service.Process and returns the slowdowns and
// the estimated unfairness the response carries.
func served(t *testing.T, svc *Service, sc *Scratch, snap *sim.IntervalSnapshot) ([]float64, float64) {
	t.Helper()
	req := FromSnapshot(snap)
	sc.Body = AppendRequest(sc.Body[:0], &req)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("Process: %v", err)
	}
	var resp wireResponse
	if err := json.Unmarshal(sc.Out, &resp); err != nil {
		t.Fatal(err)
	}
	slow := make([]float64, len(resp.Apps))
	for i, a := range resp.Apps {
		slow[i] = a.Slowdown
	}
	return slow, resp.Unfairness
}

// modelled returns DASE's slowdowns for snap and the estimated unfairness
// at its current allocation, computed in process.
func modelled(dase *core.DASE, snap *sim.IntervalSnapshot) ([]float64, float64) {
	slow := dase.Estimate(snap)
	cur := make([]int, len(snap.Apps))
	for i := range snap.Apps {
		cur[i] = snap.Apps[i].SMs
	}
	return slow, sched.EstimatedUnfairness(slow, cur, cur, snap.NumSMs)
}

// scalingOnly is DASE's slowdown for a non-bandwidth-bound app whose
// interference counters (BLPBlocked, ERBMiss, ELLCMiss) are all zero,
// derived from the equations rather than the code: the assigned-SM slowdown
// is 1, so what remains is Eq. 23's scaling to all SMs, NumSMs/SMs, under
// the Eq. 24 thread-level-parallelism cap and the Eq. 25 bandwidth cap (the
// dynamic Requestmax: 95% of the interval's line rate, bounded by the
// activation rate over the app's row-miss rate, per request served), and
// never below 1.
func scalingOnly(snap *sim.IntervalSnapshot, a *sim.AppInterval) float64 {
	all := float64(snap.NumSMs) / float64(max(a.SMs, 1))
	if a.TBShared > 0 && a.TBSum > 0 {
		all = min(all, float64(a.TBSum)/float64(a.TBShared))
	}
	rate := snap.PeakReqPerCyc
	if a.RowMisses > 0 && snap.PeakActPerCyc > 0 {
		rate = min(rate, snap.PeakActPerCyc/(float64(a.RowMisses)/float64(a.RowHits+a.RowMisses)))
	}
	all = min(all, rate*float64(snap.IntervalCycles)*0.95/max(float64(a.Served), 1))
	return max(all, 1)
}

// interferenceTerms are the counters behind DASE's three interference
// times: bank (Eq. 9, refined), row buffer (Eq. 10) and shared cache
// (Eq. 11). set scales a term by k and adds off, so k < 1 with off 0 lowers
// it and k > 1 raises it even from zero.
var interferenceTerms = []struct {
	name string
	set  func(a *sim.AppInterval, k, off float64)
}{
	{"blp_blocked", func(a *sim.AppInterval, k, off float64) { a.BLPBlocked = a.BLPBlocked*k + off/100 }},
	{"erb_miss", func(a *sim.AppInterval, k, off float64) { a.ERBMiss = uint64(float64(a.ERBMiss)*k + off) }},
	{"ellc_miss", func(a *sim.AppInterval, k, off float64) { a.ELLCMiss = a.ELLCMiss*k + off }},
}

// TestDASEMetamorphic checks five properties of the model on real
// intervals, in process and through the service: permuting the apps
// permutes the slowdowns; doubling the interval and every extensive counter
// leaves them bit-identical; the estimated unfairness is at least 1, with
// equality exactly when all slowdowns are equal; an app whose interference
// counters are all zero is estimated at Eq. 23's scaling term alone
// (scalingOnly); and an app's slowdown is monotone in each interference
// term, the others held fixed.
func TestDASEMetamorphic(t *testing.T) {
	dase := core.New(core.Options{})
	svc := NewService(Options{})
	sc := svc.Get()
	defer svc.Put(sc)
	paths := []struct {
		name     string
		estimate func(*sim.IntervalSnapshot) ([]float64, float64)
	}{
		{"core", func(s *sim.IntervalSnapshot) ([]float64, float64) { return modelled(dase, s) }},
		{"service", func(s *sim.IntervalSnapshot) ([]float64, float64) { return served(t, svc, sc, s) }},
	}
	snaps := realSnapshots(t)
	for si := range snaps {
		snap := &snaps[si]
		n := len(snap.Apps)
		for i, a := range snap.Apps {
			// Eq. 17 floors Request_shared at 1, which doubling does not
			// scale; these intervals must stay clear of it.
			if float64(a.Served)-a.ELLCMiss < 1 {
				t.Fatalf("snapshot %d app %d serves %d requests net of %v extra misses: on Eq. 17's floor",
					si, i, a.Served, a.ELLCMiss)
			}
		}
		reversed := slices.Clone(snap.Apps)
		slices.Reverse(reversed)
		doubled := *snap
		doubled.IntervalCycles *= 2
		doubled.Apps = slices.Clone(snap.Apps)
		for i := range doubled.Apps {
			a := &doubled.Apps[i]
			a.Served *= 2
			a.TimeInBanks *= 2
			a.ERBMiss *= 2
			a.ELLCMiss *= 2
			a.RowHits *= 2
			a.RowMisses *= 2
		}
		same := slices.Clone(snap.Apps)
		for i := range same {
			same[i] = snap.Apps[0]
		}
		for _, p := range paths {
			slow, unf := p.estimate(snap)
			rslow, _ := p.estimate(withApps(snap, reversed))
			for i := range slow {
				if math.Float64bits(rslow[n-1-i]) != math.Float64bits(slow[i]) {
					t.Errorf("%s, snapshot %d: app %d's slowdown %v became %v when the apps were reversed",
						p.name, si, i, slow[i], rslow[n-1-i])
				}
			}
			dslow, _ := p.estimate(&doubled)
			for i := range slow {
				if math.Float64bits(dslow[i]) != math.Float64bits(slow[i]) {
					t.Errorf("%s, snapshot %d: app %d's slowdown %v became %v at twice the interval",
						p.name, si, i, slow[i], dslow[i])
				}
			}
			allEqual := slices.Min(slow) == slices.Max(slow)
			if unf < 1 || (unf == 1) != allEqual {
				t.Errorf("%s, snapshot %d: unfairness %v for slowdowns %v", p.name, si, unf, slow)
			}
			sslow, sunf := p.estimate(withApps(snap, same))
			if slices.Min(sslow) != slices.Max(sslow) || sunf != 1 {
				t.Errorf("%s, snapshot %d: identical apps estimated %v, unfairness %v", p.name, si, sslow, sunf)
			}
			for i := range snap.Apps {
				quiet := slices.Clone(snap.Apps)
				quiet[i].BLPBlocked, quiet[i].ERBMiss, quiet[i].ELLCMiss = 0, 0, 0
				qsnap := withApps(snap, quiet)
				if dase.EstimateDetailed(qsnap)[i].MBB {
					t.Fatalf("snapshot %d app %d: bandwidth-bound, where Eq. 23 does not apply", si, i)
				}
				qslow, _ := p.estimate(qsnap)
				if want := scalingOnly(qsnap, &quiet[i]); math.Abs(qslow[i]-want) > 1e-12*want {
					t.Errorf("%s, snapshot %d: app %d without interference estimated %v, want the scaling term %v",
						p.name, si, i, qslow[i], want)
				}
				for _, term := range interferenceTerms {
					for _, step := range []struct{ k, off float64 }{{0, 0}, {0.5, 0}, {1.5, 10}, {4, 100}, {64, 1000}} {
						moved := slices.Clone(snap.Apps)
						term.set(&moved[i], step.k, step.off)
						mslow, _ := p.estimate(withApps(snap, moved))
						if (step.k < 1 && mslow[i] > slow[i]) || (step.k > 1 && mslow[i] < slow[i]) {
							t.Errorf("%s, snapshot %d: app %d's slowdown went %v -> %v when %s was scaled by %v",
								p.name, si, i, slow[i], mslow[i], term.name, step.k)
						}
					}
				}
			}
		}
	}
}
