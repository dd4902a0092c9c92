package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/telemetry"
)

func testProfile(t testing.TB, abbr string) kernels.Profile {
	t.Helper()
	p, ok := kernels.ByAbbr(abbr)
	if !ok {
		t.Fatalf("unknown Table III kernel %q", abbr)
	}
	return p
}

func testConfig(gpus int, tenants ...TenantSpec) Config {
	return Config{
		GPUs:            gpus,
		GPU:             config.Default(),
		Tenants:         tenants,
		WindowIntervals: 4,
		Seed:            7,
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no GPUs", Config{GPUs: 0, GPU: config.Default()}},
		{"bad GPU config", Config{GPUs: 1, GPU: config.Config{}}},
		{"too many slots", func() Config {
			c := testConfig(1)
			c.MaxJobsPerGPU = telemetry.MaxApps + 1
			return c
		}()},
		{"empty tenant name", testConfig(1, TenantSpec{Name: ""})},
		{"reserved tenant name", testConfig(1, TenantSpec{Name: "_idle"})},
		{"duplicate tenant", testConfig(1, TenantSpec{Name: "a"}, TenantSpec{Name: "a"})},
		{"negative quota", testConfig(1, TenantSpec{Name: "a", QuotaSMs: -1})},
		{"negative weight", testConfig(1, TenantSpec{Name: "a", Weight: -0.5})},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	f, err := New(Config{GPUs: 2, GPU: config.Default(), Tenants: []TenantSpec{{Name: "a", QuotaSMs: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.WindowIntervals != 8 || f.cfg.MaxJobsPerGPU != 4 {
		t.Errorf("defaults not applied: window=%d slots=%d", f.cfg.WindowIntervals, f.cfg.MaxJobsPerGPU)
	}
	if f.cfg.IntervalCycles != config.Default().IntervalCycles {
		t.Errorf("IntervalCycles default = %d", f.cfg.IntervalCycles)
	}
	if _, ok := f.cfg.Engine.(*ModelEngine); !ok {
		t.Errorf("default engine is %T, want *ModelEngine", f.cfg.Engine)
	}
	if got := f.Capacity(); got != 2*config.Default().NumSMs {
		t.Errorf("Capacity = %d", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	tr := telemetry.New(64)
	cfg := testConfig(1, TenantSpec{Name: "a", QuotaSMs: 8})
	cfg.Tracer = tr
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := testProfile(t, "BS")
	ok := JobSpec{ID: "j", Tenant: "a", Kernel: bs, MinSMs: 2, Work: 100}

	bad := []JobSpec{
		{ID: "j", Tenant: "nope", Kernel: bs, MinSMs: 2, Work: 100},
		{ID: "j", Tenant: "a", Kernel: bs, MinSMs: 0, Work: 100},
		{ID: "j", Tenant: "a", Kernel: bs, MinSMs: 2, Work: 0},
		{ID: "j", Tenant: "a", Kernel: kernels.Profile{}, MinSMs: 2, Work: 100},
	}
	for i, js := range bad {
		if err := f.Submit(js); err == nil {
			t.Errorf("case %d: Submit accepted an invalid job", i)
		}
	}

	// An oversized job must be rejected with ErrJobTooLarge and must not be
	// queued: the queue cannot wedge behind an impossible job.
	huge := ok
	huge.ID = "huge"
	huge.MinSMs = config.Default().NumSMs + 1
	if err := f.Submit(huge); !errors.Is(err, ErrJobTooLarge) {
		t.Fatalf("oversized job: err = %v, want ErrJobTooLarge", err)
	}
	if f.QueuedJobs() != 0 {
		t.Fatalf("oversized job was queued")
	}
	var rejected bool
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindFleetJob && e.Note == "reject" && e.Job == "huge" {
			rejected = true
		}
	}
	if !rejected {
		t.Errorf("no reject telemetry event for the oversized job")
	}

	if err := f.Submit(ok); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	if f.QueuedJobs() != 1 {
		t.Fatalf("QueuedJobs = %d, want 1", f.QueuedJobs())
	}
}

// TestBasicRun drives a small two-tenant fleet with the model engine and
// checks the run completes jobs, satisfies every fairness invariant, and
// books telemetry for each interval.
func TestBasicRun(t *testing.T) {
	tr := telemetry.New(4096)
	cfg := testConfig(2,
		TenantSpec{Name: "a", QuotaSMs: 20, Weight: 1},
		TenantSpec{Name: "b", QuotaSMs: 12, Weight: 1},
	)
	cfg.Tracer = tr
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, ct := testProfile(t, "BS"), testProfile(t, "CT")
	jobs := []JobSpec{
		{ID: "a0", Tenant: "a", Kernel: bs, MinSMs: 4, Work: 200_000},
		{ID: "a1", Tenant: "a", Kernel: ct, MinSMs: 8, Work: 200_000},
		{ID: "b0", Tenant: "b", Kernel: ct, MinSMs: 4, Work: 200_000},
		{ID: "b1", Tenant: "b", Kernel: bs, MinSMs: 2, Work: 200_000},
	}
	for _, js := range jobs {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30 && f.QueuedJobs()+f.RunningJobs() > 0; i++ {
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.QueuedJobs() + f.RunningJobs(); n != 0 {
		t.Fatalf("%d jobs still outstanding after 30 intervals", n)
	}
	rec := f.Records()
	if len(rec) == 0 {
		t.Fatal("no interval records")
	}
	if err := CheckAll(rec, f.Capacity(), cfg.GPU.NumSMs); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	var done, intervals int
	for _, e := range tr.Events() {
		switch e.Kind {
		case telemetry.KindFleetJob:
			if e.Note == "done" {
				done++
			}
		case telemetry.KindFleetInterval:
			intervals++
		}
	}
	if done != len(jobs) {
		t.Errorf("done events = %d, want %d", done, len(jobs))
	}
	if intervals == 0 {
		t.Error("no fleet.interval telemetry")
	}
}

// TestRunDeterminism replays the same scenario twice and requires identical
// records and identical CSV bytes — the contract the golden pins.
func TestRunDeterminism(t *testing.T) {
	sc := Scenario{
		Config: testConfig(2,
			TenantSpec{Name: "a", QuotaSMs: 16, Weight: 1},
			TenantSpec{Name: "b", QuotaSMs: 16, Weight: 1},
		),
		Intervals: 8,
	}
	sc.Arrivals = PoissonArrivals(11, sc.Config.Tenants, []float64{1, 0.7},
		[]kernels.Profile{testProfile(t, "BS"), testProfile(t, "SP")}, 6, 6, 50_000)

	var runs [2][]IntervalRecord
	var csvs [2]bytes.Buffer
	for i := range runs {
		f, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = f.Records()
		if err := WriteCSV(&csvs[i], runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("identical scenarios produced different records")
	}
	if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
		t.Fatal("identical scenarios produced different CSV bytes")
	}
}

func TestRemoveTenant(t *testing.T) {
	tr := telemetry.New(256)
	cfg := testConfig(1, TenantSpec{Name: "a", QuotaSMs: 8}, TenantSpec{Name: "b", QuotaSMs: 8})
	cfg.Tracer = tr
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := testProfile(t, "BS")
	for _, js := range []JobSpec{
		{ID: "a0", Tenant: "a", Kernel: bs, MinSMs: 4, Work: 1 << 40}, // long-running
		{ID: "a1", Tenant: "a", Kernel: bs, MinSMs: 4, Work: 100},
	} {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveTenant("a"); err == nil {
		t.Error("double remove succeeded")
	}
	if err := f.Submit(JobSpec{ID: "a2", Tenant: "a", Kernel: bs, MinSMs: 1, Work: 1}); err == nil {
		t.Error("Submit to a departed tenant succeeded")
	}
	var cancelled int
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindFleetJob && e.Note == "cancel" {
			cancelled++
		}
	}
	// Both a-jobs were placed on the 16-SM GPU in interval 0 (4+4 <= 16), so
	// nothing is queued and nothing cancels; re-check with a queued job.
	f2, err := New(testConfig(1, TenantSpec{Name: "c", QuotaSMs: 8}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := f2.Submit(JobSpec{ID: string(rune('a' + i)), Tenant: "c", Kernel: bs, MinSMs: 10, Work: 1 << 40}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f2.Tick(); err != nil {
		t.Fatal(err)
	}
	if f2.QueuedJobs() == 0 {
		t.Fatal("expected a backlog")
	}
	if err := f2.RemoveTenant("c"); err != nil {
		t.Fatal(err)
	}
	if f2.QueuedJobs() != 0 {
		t.Error("departed tenant still has queued jobs")
	}
	// The running job drains; once done the tenant is reaped entirely.
	if f2.RunningJobs() == 0 {
		t.Error("running job should keep draining after departure")
	}
}

func TestWriteCSVShape(t *testing.T) {
	rec := []IntervalRecord{{
		Interval: 0,
		Tenants: []TenantRecord{
			{Name: "a", QuotaSMs: 8, DeservedSMs: 8, AllocatedSMs: 10, WindowShare: 0.3125},
		},
		IdleSMs: 6,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + tenant + idle", len(lines))
	}
	if !strings.HasPrefix(lines[0], "interval,tenant,") {
		t.Errorf("bad header %q", lines[0])
	}
	if lines[1] != "0,a,8,8.000,10,0,0,0.3125,false,0.0000" {
		t.Errorf("bad tenant row %q", lines[1])
	}
	if lines[2] != "0,_idle,0,0.000,6,0,0,0.0000,false,0.0000" {
		t.Errorf("bad idle row %q", lines[2])
	}
}

func TestSummarize(t *testing.T) {
	rec := []IntervalRecord{
		{Interval: 0, Tenants: []TenantRecord{
			{Name: "a", QuotaSMs: 8, DeservedSMs: 8, AllocatedSMs: 8, MeanSlowdown: 1.5},
			{Name: "b", QuotaSMs: 8, DeservedSMs: 8, AllocatedSMs: 4, Queued: 1},
		}, IdleSMs: 4},
		{Interval: 1, Tenants: []TenantRecord{
			{Name: "a", QuotaSMs: 8, DeservedSMs: 8, AllocatedSMs: 8, MeanSlowdown: 2.5},
			{Name: "b", QuotaSMs: 8, DeservedSMs: 8, AllocatedSMs: 8},
		}},
	}
	s := Summarize(rec, 16)
	if s.Intervals != 2 || s.Capacity != 16 || s.IdleSMs != 4 {
		t.Fatalf("summary header = %+v", s)
	}
	if len(s.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(s.Tenants))
	}
	a, b := s.Tenants[0], s.Tenants[1]
	if a.Name != "a" || a.TotalSMs != 16 || a.MeanSlowdown != 2.0 {
		t.Errorf("tenant a = %+v", a)
	}
	if b.TotalSMs != 12 || b.MaxDebtSMs != 4 {
		t.Errorf("tenant b = %+v", b)
	}
	if s.JainIndex <= 0 || s.JainIndex > 1 {
		t.Errorf("Jain index = %v", s.JainIndex)
	}
	// Perfectly proportional service has index exactly 1.
	even := Summarize(rec[1:], 16)
	if even.JainIndex != 1 {
		t.Errorf("even Jain index = %v, want 1", even.JainIndex)
	}
}

func TestClampToMinimums(t *testing.T) {
	mk := func(mins ...int) []*job {
		js := make([]*job, len(mins))
		for i, m := range mins {
			js[i] = &job{spec: JobSpec{MinSMs: m}}
		}
		return js
	}
	alloc := []int{1, 13, 2}
	clampToMinimums(alloc, mk(4, 4, 2), 16)
	if alloc[0] < 4 || alloc[1] < 4 || alloc[2] < 2 {
		t.Fatalf("clamp left someone under minimum: %v", alloc)
	}
	if alloc[0]+alloc[1]+alloc[2] != 16 {
		t.Fatalf("clamp changed the total: %v", alloc)
	}
	// Tight fit: minimums sum exactly to the total.
	alloc = []int{8, 4, 4}
	clampToMinimums(alloc, mk(8, 4, 4), 16)
	if !reflect.DeepEqual(alloc, []int{8, 4, 4}) {
		t.Fatalf("tight clamp moved SMs: %v", alloc)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	tenants := []TenantSpec{{Name: "a"}, {Name: "b"}}
	profiles := []kernels.Profile{testProfile(t, "BS")}
	a := PoissonArrivals(5, tenants, []float64{1.5, 0.5}, profiles, 10, 8, 100)
	b := PoissonArrivals(5, tenants, []float64{1.5, 0.5}, profiles, 10, 8, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := PoissonArrivals(6, tenants, []float64{1.5, 0.5}, profiles, 10, 8, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	if len(a) == 0 {
		t.Fatal("empty trace at rate 1.5")
	}
	for i, ar := range a {
		if i > 0 && ar.Interval < a[i-1].Interval {
			t.Fatal("arrivals out of order")
		}
		if ar.Job.MinSMs < 1 || ar.Job.MinSMs > 8 {
			t.Fatalf("MinSMs %d out of range", ar.Job.MinSMs)
		}
		if err := ar.Job.Kernel.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineSeedStability(t *testing.T) {
	if engineSeed(1, 0, 0) == engineSeed(1, 0, 1) || engineSeed(1, 0, 0) == engineSeed(1, 1, 0) {
		t.Fatal("engine seeds collide across gpu/epoch")
	}
	if engineSeed(1, 2, 3) != engineSeed(1, 2, 3) {
		t.Fatal("engine seed not stable")
	}
}
