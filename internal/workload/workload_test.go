package workload

import (
	"context"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

func TestAllPairsCount(t *testing.T) {
	pairs := AllPairs()
	if len(pairs) != 105 { // C(15,2)
		t.Fatalf("AllPairs = %d, want 105", len(pairs))
	}
	seen := map[string]bool{}
	for _, c := range pairs {
		if len(c.Profiles) != 2 {
			t.Fatalf("pair with %d profiles", len(c.Profiles))
		}
		if c.Profiles[0].Abbr == c.Profiles[1].Abbr {
			t.Fatalf("self-pair %s", c.Name())
		}
		if seen[c.Name()] {
			t.Fatalf("duplicate pair %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestRandomQuads(t *testing.T) {
	quads := RandomQuads(30, 1)
	if len(quads) != 30 {
		t.Fatalf("got %d quads", len(quads))
	}
	for _, q := range quads {
		if len(q.Profiles) != 4 {
			t.Fatalf("quad with %d profiles", len(q.Profiles))
		}
		names := map[string]bool{}
		for _, p := range q.Profiles {
			if names[p.Abbr] {
				t.Fatalf("quad %s repeats a kernel", q.Name())
			}
			names[p.Abbr] = true
		}
	}
	// Deterministic in the seed.
	again := RandomQuads(30, 1)
	for i := range quads {
		if quads[i].Name() != again[i].Name() {
			t.Fatal("RandomQuads not deterministic")
		}
	}
	other := RandomQuads(30, 2)
	same := 0
	for i := range quads {
		if quads[i].Name() == other[i].Name() {
			same++
		}
	}
	if same == 30 {
		t.Fatal("different seeds gave identical quads")
	}
}

func TestRandomPairs(t *testing.T) {
	ps := RandomPairs(30, 7)
	if len(ps) != 30 {
		t.Fatalf("got %d pairs", len(ps))
	}
	seen := map[string]bool{}
	for _, c := range ps {
		if seen[c.Name()] {
			t.Fatalf("duplicate pair %s in sample", c.Name())
		}
		seen[c.Name()] = true
	}
	if got := RandomPairs(1000, 7); len(got) != 105 {
		t.Fatalf("oversized sample should clamp to 105, got %d", len(got))
	}
}

func TestComboName(t *testing.T) {
	a, _ := kernels.ByAbbr("SB")
	b, _ := kernels.ByAbbr("SD")
	c := Combo{Profiles: []kernels.Profile{a, b}}
	if c.Name() != "SB+SD" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestEvaluateAllPreservesOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	ct, _ := kernels.ByAbbr("CT")
	jobs := []Job{
		{Combo: Combo{Profiles: []kernels.Profile{qr, bg}}, Alloc: []int{8, 8}},
		{Combo: Combo{Profiles: []kernels.Profile{qr, ct}}, Alloc: []int{8, 8}},
	}
	evals, err := EvaluateAll(context.Background(), opt, jobs, simcache.NewMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].Combo.Name() != "QR+BG" || evals[1].Combo.Name() != "QR+CT" {
		t.Fatalf("order not preserved: %s, %s", evals[0].Combo.Name(), evals[1].Combo.Name())
	}
	for _, ev := range evals {
		if len(ev.Actual) != 2 || ev.Unfairness < 1 {
			t.Fatalf("bad eval: %+v", ev)
		}
	}
}
