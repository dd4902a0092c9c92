package estimate

import (
	"math"
	"strings"
	"testing"

	"dasesim/internal/core"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// TestServiceMatchesModel: the service's numbers must be exactly those of
// the underlying model primitives — no drift between the served path and
// the in-process path.
func TestServiceMatchesModel(t *testing.T) {
	svc := NewService(Options{})
	req := sampleRequest(0)
	req.PeakReqPerCyc = svc.Options().Cfg.PeakRequestsPerCycle()
	req.PeakActPerCyc = svc.Options().Cfg.PeakActivationsPerCycle()
	req.ReqMaxFactor = svc.Options().Cfg.RequestMaxFactor

	sc := svc.Get()
	defer svc.Put(sc)
	sc.Body = AppendRequest(sc.Body[:0], &req)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("Process: %v", err)
	}

	// Reference: feed the identical snapshot through core+sched directly.
	snap := &sim.IntervalSnapshot{
		IntervalCycles: req.IntervalCycles,
		NumSMs:         req.NumSMs,
		PeakReqPerCyc:  req.PeakReqPerCyc,
		PeakActPerCyc:  req.PeakActPerCyc,
		ReqMaxFactor:   req.ReqMaxFactor,
	}
	for i, a := range req.Apps {
		snap.Apps = append(snap.Apps, sim.AppInterval{
			SMs: a.SMs, Alpha: a.Alpha, Served: a.Served, TimeInBanks: a.TimeInBanks,
			ERBMiss: a.ERBMiss, ELLCMiss: a.ELLCMiss, RowHits: a.RowHits,
			RowMisses: a.RowMisses, BLP: a.BLP, BLPAccess: a.BLPAccess,
			BLPBlocked: a.BLPBlocked, TBSum: a.TBSum, TBShared: a.TBShared,
		})
		_ = i
	}
	det := core.New(core.Options{}).EstimateDetailed(snap)
	slow := make([]float64, len(det))
	cur := make([]int, len(det))
	for i := range det {
		slow[i] = det[i].Slowdown
		cur[i] = req.Apps[i].SMs
	}
	best, bestUnf := sched.SearchBestPartition(slow, cur, req.NumSMs, 1)
	wantUnf := sched.EstimatedUnfairness(slow, cur, cur, req.NumSMs)

	want := Response{Unfairness: wantUnf, PartitionUnfairness: bestUnf}
	for i := range det {
		want.Apps = append(want.Apps, AppResult{
			Slowdown: det[i].Slowdown, SlowdownAssigned: det[i].SlowdownAssigned,
			MBB: det[i].MBB, Alpha: det[i].Alpha, TimeBank: det[i].TimeBank,
			TimeRow: det[i].TimeRow, TimeLLC: det[i].TimeLLC,
		})
	}
	want.Partition = best
	wantBytes := appendResponse(nil, &want)
	if string(sc.Out) != string(wantBytes) {
		t.Fatalf("served response diverges from model:\n got %s\nwant %s", sc.Out, wantBytes)
	}
}

// TestValidationRejections: the input-hardening satellite — garbage counters
// must be rejected as KindInvalid, never reach EstimateDetailed.
func TestValidationRejections(t *testing.T) {
	svc := NewService(Options{})
	base := func() Request { return sampleRequest(0) }
	cases := []struct {
		name   string
		mut    func(*Request)
		direct bool   // NaN/Inf cannot travel as JSON; validate directly
		want   string // substring of the error
	}{
		{"no-apps", func(r *Request) { r.Apps = nil }, false, "apps is empty"},
		{"negative-alpha", func(r *Request) { r.Apps[0].Alpha = -0.1 }, false, "alpha"},
		{"alpha-above-one", func(r *Request) { r.Apps[0].Alpha = 1.5 }, false, "alpha"},
		{"nan-alpha", func(r *Request) { r.Apps[0].Alpha = math.NaN() }, true, "alpha"},
		{"negative-blp", func(r *Request) { r.Apps[1].BLP = -3 }, false, "blp is negative"},
		{"inf-ellc", func(r *Request) { r.Apps[0].ELLCMiss = math.Inf(1) }, true, "ellc_miss is infinite"},
		{"nan-peak", func(r *Request) { r.PeakReqPerCyc = math.NaN() }, true, "peak_req_per_cyc is NaN"},
		{"absurd-served", func(r *Request) { r.Apps[0].Served = 1 << 62 }, false, "served is absurdly large"},
		{"absurd-interval", func(r *Request) { r.IntervalCycles = 1 << 62 }, false, "interval_cycles"},
		{"num-sms-too-big", func(r *Request) { r.NumSMs = 100_000 }, false, "num_sms"},
		{"negative-num-sms", func(r *Request) { r.NumSMs = -4 }, true, "num_sms"},
		{"sms-over-total", func(r *Request) { r.Apps[0].SMs = 99 }, false, "sms is out of range"},
		{"negative-tbsum", func(r *Request) { r.Apps[0].TBSum = -1 }, false, "tb_sum"},
		{"infeasible-min-sms", func(r *Request) { r.MinSMs = 9 }, false, "min_sms"},
		{"negative-min-sms", func(r *Request) { r.MinSMs = -2 }, true, "min_sms"},
		{"req-max-factor-above-one", func(r *Request) { r.ReqMaxFactor = 1.5 }, false, "req_max_factor"},
		{"partition-explosion", func(r *Request) {
			r.NumSMs = 4096
			r.Apps = append(r.Apps, r.Apps...)
			r.Apps = append(r.Apps, r.Apps...) // 8 apps
		}, false, "too many candidate partitions"},
	}
	sc := svc.Get()
	defer svc.Put(sc)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base()
			tc.mut(&req)
			var err error
			if tc.direct {
				svc.applyDefaults(&req)
				if verr := svc.validate(&req, 0, false); verr != nil {
					err = verr
				}
			} else {
				sc.Body = AppendRequest(sc.Body[:0], &req)
				err = svc.Process(sc)
			}
			if err == nil {
				t.Fatalf("want rejection, got accept")
			}
			rerr, ok := err.(*RequestError)
			if !ok || rerr.Kind != KindInvalid {
				t.Fatalf("want KindInvalid RequestError, got %T %v", err, err)
			}
			if !strings.Contains(rerr.Msg, tc.want) {
				t.Fatalf("error %q does not mention %q", rerr.Msg, tc.want)
			}
		})
	}

	// Batch errors must name the failing request index.
	good, bad := base(), base()
	bad.Apps[0].Alpha = -1
	body := append([]byte{'['}, AppendRequest(nil, &good)...)
	body = append(body, ',')
	body = append(body, AppendRequest(nil, &bad)...)
	body = append(body, ']')
	sc.Body = append(sc.Body[:0], body...)
	err := svc.Process(sc)
	if err == nil || !strings.Contains(err.Error(), "request 1:") {
		t.Fatalf("batch rejection must name the request index, got %v", err)
	}
}

// TestDefaultsApplied: a minimal request inherits the service's machine
// configuration.
func TestDefaultsApplied(t *testing.T) {
	svc := NewService(Options{})
	sc := svc.Get()
	defer svc.Put(sc)
	sc.Body = append(sc.Body[:0], `{"apps":[{"sms":8,"alpha":0.3,"served":500,"blp":4},{"sms":8,"alpha":0.4,"served":700,"blp":5}]}`...)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
	reqs := sc.Requests()
	cfg := svc.Options().Cfg
	if reqs[0].IntervalCycles != cfg.IntervalCycles || reqs[0].NumSMs != cfg.NumSMs ||
		reqs[0].ReqMaxFactor != cfg.RequestMaxFactor || reqs[0].MinSMs != 1 {
		t.Fatalf("defaults not applied: %+v", reqs[0])
	}
}

// TestEstimateSnapshot exercises the in-process convenience path.
func TestEstimateSnapshot(t *testing.T) {
	svc := NewService(Options{})
	req := sampleRequest(0)
	snap := sim.IntervalSnapshot{
		IntervalCycles: req.IntervalCycles,
		NumSMs:         req.NumSMs,
		PeakReqPerCyc:  svc.Options().Cfg.PeakRequestsPerCycle(),
		PeakActPerCyc:  svc.Options().Cfg.PeakActivationsPerCycle(),
		ReqMaxFactor:   0.6,
	}
	for _, a := range req.Apps {
		snap.Apps = append(snap.Apps, sim.AppInterval{SMs: a.SMs, Alpha: a.Alpha, Served: a.Served, BLP: a.BLP})
	}
	resp, err := svc.EstimateSnapshot(&snap)
	if err != nil {
		t.Fatalf("EstimateSnapshot: %v", err)
	}
	if len(resp.Apps) != 2 || len(resp.Partition) != 2 {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

// TestProcessZeroAlloc is the alloc-budget guard the acceptance criteria
// demand: once a Scratch is warm, the full decode → validate → estimate →
// partition-search → encode path must not allocate at all.
func TestProcessZeroAlloc(t *testing.T) {
	svc := NewService(Options{})
	req := sampleRequest(11)
	single := AppendRequest(nil, &req)
	r2 := sampleRequest(12)
	batch := append([]byte{'['}, AppendRequest(nil, &req)...)
	batch = append(batch, ',')
	batch = append(batch, AppendRequest(nil, &r2)...)
	batch = append(batch, ']')

	// The partition search's table lives in the Scratch, so the budget holds
	// at any shape the validator admits: the bench's 4 apps × 16 SMs, a wide
	// table (3 apps × 256 SMs: 762 entries, 32385 candidates), and MaxApps
	// apps on a big machine (8 × 128 SMs at min_sms 15).
	shape := func(numSMs, minSMs, apps int) []byte {
		r := sampleRequest(13)
		r.NumSMs, r.MinSMs = numSMs, minSMs
		for len(r.Apps) < apps {
			a := r.Apps[len(r.Apps)%2]
			a.Alpha /= float64(len(r.Apps)) // distinct slowdowns
			r.Apps = append(r.Apps, a)
		}
		for i := range r.Apps {
			r.Apps[i].SMs = numSMs / apps
		}
		return AppendRequest(nil, &r)
	}
	bodies := map[string][]byte{
		"single": single, "batch": batch,
		"4x16": shape(16, 1, 4), "3x256": shape(256, 1, 3), "8x128": shape(128, 15, 8),
	}

	sc := svc.Get()
	defer svc.Put(sc)
	// Warm every buffer, alternating shapes so all are at capacity.
	for i := 0; i < 4; i++ {
		for _, body := range bodies {
			sc.Body = append(sc.Body[:0], body...)
			if err := svc.Process(sc); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
	}
	for name, body := range bodies {
		body := body
		allocs := testing.AllocsPerRun(100, func() {
			sc.Body = append(sc.Body[:0], body...)
			if err := svc.Process(sc); err != nil {
				t.Fatalf("Process: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op on the serve hot path, budget is 0", name, allocs)
		}
	}
}

// BenchmarkProcessSingle is the transport-free serving benchmark: one 2-app
// snapshot per op, the in-process half of bench's est-single.
func BenchmarkProcessSingle(b *testing.B) {
	svc := NewService(Options{})
	req := sampleRequest(0)
	body := AppendRequest(nil, &req)
	sc := svc.Get()
	defer svc.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Body = append(sc.Body[:0], body...)
		if err := svc.Process(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessBatch8 serves an 8-snapshot batch per op.
func BenchmarkProcessBatch8(b *testing.B) {
	svc := NewService(Options{})
	req := sampleRequest(0)
	body := []byte{'['}
	for i := 0; i < 8; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = AppendRequest(body, &req)
	}
	body = append(body, ']')
	sc := svc.Get()
	defer svc.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Body = append(sc.Body[:0], body...)
		if err := svc.Process(sc); err != nil {
			b.Fatal(err)
		}
	}
}
