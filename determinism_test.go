package dasesim

// Determinism golden tests: the simulator's correctness contract is that a
// (config, profiles, alloc, cycles, seed) tuple maps to exactly one Result —
// the content-addressed result cache, and with it dased's recovery after a
// restart, depends on it, and every engine optimization must preserve it
// byte for byte.
//
// Two layers of protection:
//
//  1. Same-process: each scenario runs twice on fresh GPUs and the Results
//     (including every IntervalSnapshot) must be deeply equal.
//  2. Cross-process/cross-commit: a SHA-256 fingerprint of the canonical JSON
//     encoding of the Result is compared against testdata/determinism_golden.json.
//     Running the suite with -count=2, on another machine, or after an engine
//     refactor must reproduce the recorded fingerprints exactly.
//
// Regenerate the golden file (only when an *intentional* model change lands)
// with: go test -run TestDeterminismGolden -update-golden

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/determinism_golden.json with the current engine's fingerprints")

const goldenPath = "testdata/determinism_golden.json"

// fingerprint canonically encodes a Result and hashes it. JSON encoding of
// Go float64s is deterministic (shortest round-trip representation), so the
// hash covers every field of the Result and all snapshots bit-exactly.
func fingerprint(t *testing.T, res *sim.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

type detCase struct {
	name   string
	abbrs  []string
	alloc  []int
	cycles uint64
	seed   uint64
	// opts is appended to each run's sim options; scenarioRuns adds the
	// invariant sweep and the tracer here for a scenario's second run.
	opts []sim.Option
	run  func(t *testing.T, c detCase) *sim.Result
}

func runShared(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	res, err := sim.RunShared(config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runSharedEpochs(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	opts := append([]sim.Option{sim.WithPriorityEpochs()}, c.opts...)
	res, err := sim.RunShared(config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runFairPolicy exercises the dynamic-reallocation path: DASE-Fair triggers
// SetAllocation, SM draining and reassignment — the parts of the engine a
// performance refactor is most likely to disturb.
func runFairPolicy(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	res, err := sched.Run(context.Background(), config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, sched.NewDASEFair(), c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// abortCtx is a context whose Err turns non-nil on its polls-th call. The
// engine polls Err every few thousand cycles, so a run under it dies
// partway through, as a run on a killed worker would.
type abortCtx struct {
	context.Context
	polls int
}

func (c *abortCtx) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// abortPolls puts the aborted first attempts about 40K cycles into their
// 160K-cycle runs.
const abortPolls = 10

// runRetentionFaultRetry exercises the operational paths the daemon leans on:
// the first attempt is aborted partway through (as a crashed worker would
// be), the rerun must succeed, and the whole run executes under a snapshot
// retention cap small enough to force eviction folding. The fingerprint
// therefore covers WithSnapshotRetention's truncated-snapshot encoding and
// proves a rerun after an aborted attempt reproduces the canonical result
// bit for bit.
func runRetentionFaultRetry(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	// Retention 2 with IntervalCycles 50_000 over 160_000 cycles produces 3
	// snapshots and evicts the first, so the fold-into-aggregates path is on
	// the golden fingerprint.
	opts := append([]sim.Option{sim.WithSnapshotRetention(2)}, c.opts...)
	if _, err := sched.Run(&abortCtx{context.Background(), abortPolls}, config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, nil, opts...); err == nil {
		t.Fatal("first attempt survived its abort")
	}
	res, err := sched.Run(context.Background(), config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, nil, opts...)
	if err != nil {
		t.Fatalf("rerun after the aborted attempt: %v", err)
	}
	if len(res.Snapshots) != 2 {
		t.Fatalf("retention cap kept %d snapshots, want 2", len(res.Snapshots))
	}
	return res
}

// runParFairRetentionFaultRetry is the combined operational scenario: the
// DASE-Fair policy repartitions SMs mid-run (draining + reassignment) from a
// deliberately unfair start, snapshots are evicted under a retention cap, the
// first attempt is aborted partway through, and the rerun must reproduce the
// canonical result bit for bit. "Par" and the "parallel" in its
// golden key date from the deleted phased engine (DESIGN §10), which this
// scenario was first recorded on; the key is kept so the fingerprint's
// history stays continuous.
func runParFairRetentionFaultRetry(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	opts := append([]sim.Option{sim.WithSnapshotRetention(2)}, c.opts...)
	if _, err := sched.Run(&abortCtx{context.Background(), abortPolls}, config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, sched.NewDASEFair(), opts...); err == nil {
		t.Fatal("first attempt survived its abort")
	}
	res, err := sched.Run(context.Background(), config.Default(), detProfiles(t, c.abbrs), c.alloc, c.cycles, c.seed, sched.NewDASEFair(), opts...)
	if err != nil {
		t.Fatalf("rerun after the aborted attempt: %v", err)
	}
	if len(res.Snapshots) != 2 {
		t.Fatalf("retention cap kept %d snapshots, want 2", len(res.Snapshots))
	}
	// The deliberately unfair starting allocation must have been repartitioned
	// mid-run, or the scenario is not exercising reassignment.
	last := res.Snapshots[len(res.Snapshots)-1]
	moved := false
	for a := range last.Apps {
		if last.Apps[a].SMs != c.alloc[a] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("DASE-Fair never repartitioned the unfair starting allocation")
	}
	return res
}

func detProfiles(t *testing.T, abbrs []string) []kernels.Profile {
	t.Helper()
	ps := make([]kernels.Profile, len(abbrs))
	for i, ab := range abbrs {
		p, ok := kernels.ByAbbr(ab)
		if !ok {
			t.Fatalf("kernel %s missing", ab)
		}
		ps[i] = p
	}
	return ps
}

func detCases() []detCase {
	return []detCase{
		{name: "pair-SB-SD", abbrs: []string{"SB", "SD"}, alloc: []int{8, 8}, cycles: 120_000, seed: 1, run: runShared},
		{name: "pair-VA-CT-uneven", abbrs: []string{"VA", "CT"}, alloc: []int{6, 10}, cycles: 120_000, seed: 3, run: runShared},
		{name: "quad-SB-SD-CT-QR", abbrs: []string{"SB", "SD", "CT", "QR"}, alloc: []int{4, 4, 4, 4}, cycles: 120_000, seed: 7, run: runShared},
		{name: "pair-SB-SD-epochs", abbrs: []string{"SB", "SD"}, alloc: []int{8, 8}, cycles: 120_000, seed: 1, run: runSharedEpochs},
		{name: "pair-VA-CT-dasefair", abbrs: []string{"VA", "CT"}, alloc: []int{8, 8}, cycles: 160_000, seed: 5, run: runFairPolicy},
		{name: "pair-SB-SD-retention-faultretry", abbrs: []string{"SB", "SD"}, alloc: []int{8, 8}, cycles: 160_000, seed: 11, run: runRetentionFaultRetry},
		{name: "pair-VA-CT-parallel-fair-retention-faultretry", abbrs: []string{"VA", "CT"}, alloc: []int{12, 4}, cycles: 160_000, seed: 13, run: runParFairRetentionFaultRetry},
	}
}

// detRuns are one scenario's two runs: the first plain, the second with
// the invariant sweep and the event tracer on. The determinism tests below
// and TestEstimateServiceCrossCheck read them, each run simulated on first
// use, so each scenario is simulated at most twice per test binary; deep
// equality of the pair (TestDeterminismGolden) is what proves the run
// deterministic and the sweep and the tracer observation-only.
type detRuns struct {
	plain, checked *sim.Result
	tracer         *telemetry.Tracer
	// ranPlain and ranChecked are set before the run, so a run that failed
	// stays failed.
	ranPlain, ranChecked bool
}

// detMemo holds the runs by scenario name. The tests reading it run one at
// a time.
var detMemo = map[string]*detRuns{}

// scenarioPlain returns c's plain run, simulating it on the first request.
func scenarioPlain(t *testing.T, c detCase) *sim.Result {
	t.Helper()
	r := detMemo[c.name]
	if r == nil {
		r = &detRuns{}
		detMemo[c.name] = r
	}
	if !r.ranPlain {
		r.ranPlain = true
		r.plain = c.run(t, c)
	}
	if r.plain == nil {
		t.Fatalf("scenario %s failed in an earlier test", c.name)
	}
	return r.plain
}

// scenarioRuns returns both of c's runs, simulating each on its first
// request.
func scenarioRuns(t *testing.T, c detCase) *detRuns {
	t.Helper()
	scenarioPlain(t, c)
	r := detMemo[c.name]
	if !r.ranChecked {
		r.ranChecked = true
		r.tracer = telemetry.New(0)
		checked := c
		checked.opts = append(c.opts[:len(c.opts):len(c.opts)], sim.WithInvariantChecks(), sim.WithTracer(r.tracer))
		r.checked = c.run(t, checked)
	}
	if r.checked == nil {
		t.Fatalf("scenario %s failed in an earlier test", c.name)
	}
	return r
}

// readGolden returns the recorded fingerprints by scenario name.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		if *updateGolden {
			return golden
		}
		t.Fatalf("read %s: %v (regenerate with -update-golden)", goldenPath, err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return golden
}

// TestInvariantChecksGolden requires the recorded golden fingerprint of every
// scenario's run with the runtime invariant checker enabled: the sweep must
// pass on every state the scenarios reach AND must not perturb the
// simulation by a single byte.
func TestInvariantChecksGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	golden := readGolden(t)
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			fp := fingerprint(t, scenarioRuns(t, c).checked)
			if want := golden[c.name]; fp != want {
				t.Errorf("fingerprint mismatch with invariant checks on: got %s want %s\nchecking must be observation-only", fp, want)
			}
		})
	}
}

// TestTracingGolden requires the recorded golden fingerprint of every
// scenario's traced run: tracing must be observation-only — enabling it
// cannot change a single byte of any result — while still capturing the
// engine's interval and (for the DASE-Fair case) estimator events.
func TestTracingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	golden := readGolden(t)
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			r := scenarioRuns(t, c)
			if fp, want := fingerprint(t, r.checked), golden[c.name]; fp != want {
				t.Errorf("fingerprint mismatch with tracing on: got %s want %s\ntracing must be observation-only", fp, want)
			}
			if r.tracer.Len() == 0 {
				t.Fatal("traced run emitted no events")
			}
			kinds := map[telemetry.Kind]int{}
			for _, e := range r.tracer.Events() {
				kinds[e.Kind]++
			}
			if kinds[telemetry.KindInterval] == 0 {
				t.Error("no interval events traced")
			}
			if c.name == "pair-VA-CT-dasefair" {
				if kinds[telemetry.KindDASEApp] == 0 {
					t.Error("DASE-Fair run traced no dase.app events")
				}
				if kinds[telemetry.KindSchedDecision] == 0 {
					t.Error("DASE-Fair run traced no sched.decision events")
				}
			}
		})
	}
}

// TestDeterminismGolden is the safety net for engine optimizations: a
// scenario's two runs in-process, the second with the invariant sweep and
// the tracer on, must be deeply equal, and their fingerprint must match the
// recorded golden value.
func TestDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	golden := readGolden(t)
	got := map[string]string{}
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			r := scenarioRuns(t, c)
			if !reflect.DeepEqual(r.plain, r.checked) {
				t.Fatalf("two identical runs diverged (the second with invariant checks and tracing on):\nfirst:  %+v\nsecond: %+v", r.plain, r.checked)
			}
			if len(r.plain.Snapshots) == 0 {
				t.Fatal("run produced no interval snapshots; the golden would not cover them")
			}
			fp := fingerprint(t, r.plain)
			got[c.name] = fp
			if *updateGolden {
				return
			}
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no golden fingerprint for %q (regenerate with -update-golden)", c.name)
			}
			if fp != want {
				t.Errorf("fingerprint mismatch: got %s want %s\nthe engine no longer produces byte-identical results for this scenario", fp, want)
			}
		})
	}

	if *updateGolden {
		// Merge into the existing file rather than overwriting it: the golden
		// map also holds keys owned by other suites (the fleet CSV golden among
		// them), and regenerating the engine fingerprints must not drop those.
		for k, v := range got {
			golden[k] = v
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}
}
