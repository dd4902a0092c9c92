package kernels

import (
	"strings"
	"testing"
	"testing/quick"

	"dasesim/internal/config"
)

func TestAllProfilesValidate(t *testing.T) {
	ps := All()
	if len(ps) != 15 {
		t.Fatalf("Table III has 15 applications, got %d", len(ps))
	}
	seen := map[string]bool{}
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			t.Errorf("%s: %v", ps[i].Abbr, err)
		}
		if seen[ps[i].Abbr] {
			t.Errorf("duplicate abbreviation %s", ps[i].Abbr)
		}
		seen[ps[i].Abbr] = true
		if ps[i].PaperBW <= 0 || ps[i].PaperBW > 1 {
			t.Errorf("%s: PaperBW %v out of range", ps[i].Abbr, ps[i].PaperBW)
		}
	}
}

func TestByAbbr(t *testing.T) {
	p, ok := ByAbbr("SB")
	if !ok || p.Name != "sobol" {
		t.Fatalf("ByAbbr(SB) = %v, %v", p, ok)
	}
	if _, ok := ByAbbr("ZZ"); ok {
		t.Fatal("unknown abbreviation resolved")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 15 || names[0] != "BS" || names[14] != "SD" {
		t.Fatalf("unexpected Table III order: %v", names)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByAbbr("SB")
	cases := []func(*Profile){
		func(p *Profile) { p.MemFrac = -0.1 },
		func(p *Profile) { p.MemFrac = 1.5 },
		func(p *Profile) { p.ComputeLat = 0 },
		func(p *Profile) { p.ComputeLat = config.WheelHorizon },
		func(p *Profile) { p.ComputeLat = 200 },
		func(p *Profile) { p.CoalescedLines = 0 },
		func(p *Profile) { p.CoalescedLines = MaxLinesPerOp + 1 },
		func(p *Profile) { p.SeqRun = 0 },
		func(p *Profile) { p.FootprintLines = 0 },
		func(p *Profile) { p.WriteFrac = 2 },
		func(p *Profile) { p.Blocks = 0 },
		func(p *Profile) { p.InstPerWarp = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

// TestValidateComputeLatBound: the longest latency the SM's timing wheel can
// schedule is accepted, and the horizon error names the field.
func TestValidateComputeLatBound(t *testing.T) {
	p, _ := ByAbbr("SB")
	p.ComputeLat = config.WheelHorizon - 1
	if err := p.Validate(); err != nil {
		t.Fatalf("ComputeLat %d rejected: %v", p.ComputeLat, err)
	}
	p.ComputeLat = config.WheelHorizon
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ComputeLat") {
		t.Fatalf("ComputeLat at the horizon: got %v, want an error naming ComputeLat", err)
	}
}

func TestWithMemFrac(t *testing.T) {
	p, _ := ByAbbr("SB")
	q := p.WithMemFrac(0.5)
	if q.MemFrac != 0.5 || p.MemFrac == 0.5 {
		t.Fatal("WithMemFrac must copy, not mutate")
	}
}

func TestStreamDeterminism(t *testing.T) {
	p, _ := ByAbbr("VA")
	a := NewWarpStream(&p, 1<<40, 7, 3, 42)
	b := NewWarpStream(&p, 1<<40, 7, 3, 42)
	var opA, opB Op
	for i := 0; i < 500; i++ {
		okA := a.Next(&opA)
		okB := b.Next(&opB)
		if okA != okB || opA != opB {
			t.Fatalf("streams diverge at instruction %d", i)
		}
		if !okA {
			break
		}
	}
}

func TestStreamInstructionCount(t *testing.T) {
	p, _ := ByAbbr("VA")
	p.InstPerWarp = 100
	ws := NewWarpStream(&p, 0, 0, 0, 1)
	var op Op
	n := 0
	for ws.Next(&op) {
		n++
	}
	if n != 100 {
		t.Fatalf("stream yielded %d instructions, want 100", n)
	}
	if ws.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion", ws.Remaining())
	}
}

func TestMemFracRatio(t *testing.T) {
	p, _ := ByAbbr("VA")
	p.InstPerWarp = 10_000
	ws := NewWarpStream(&p, 0, 0, 0, 1)
	var op Op
	mem := 0
	for ws.Next(&op) {
		if op.Mem {
			mem++
		}
	}
	got := float64(mem) / 10_000
	if got < p.MemFrac*0.9 || got > p.MemFrac*1.1 {
		t.Fatalf("memory fraction %.4f, profile says %.4f", got, p.MemFrac)
	}
}

// TestBlockStreamCoalescing: the warps of one block must cover adjacent
// lines at the same access index — that is what produces row locality.
func TestBlockStreamCoalescing(t *testing.T) {
	p, _ := ByAbbr("VA")
	p.ScatterFrac = 0 // pure streaming so every access is block-cooperative
	warps := make([]*WarpStream, p.WarpsPerBlock)
	for w := range warps {
		warps[w] = NewWarpStream(&p, 0, 5, w, 9)
	}
	// Drive all warps to their first memory instruction.
	firstLines := make([]uint64, len(warps))
	for w, ws := range warps {
		var op Op
		for ws.Next(&op) {
			if op.Mem {
				firstLines[w] = op.Lines[0] / LineBytes
				break
			}
		}
	}
	// Lines must be consecutive with stride CoalescedLines per warp.
	for w := 1; w < len(warps); w++ {
		want := firstLines[0] + uint64(w*p.CoalescedLines)
		if firstLines[w] != want {
			t.Fatalf("warp %d first line %d, want %d (block-cooperative streaming)", w, firstLines[w], want)
		}
	}
}

// TestScatterSpreads: the scatter pattern must not produce the coalesced
// adjacency of BlockStream.
func TestScatterSpreads(t *testing.T) {
	p, _ := ByAbbr("SD") // scatter kernel
	a := NewWarpStream(&p, 0, 5, 0, 9)
	b := NewWarpStream(&p, 0, 5, 1, 9)
	var la, lb uint64
	var op Op
	for a.Next(&op) {
		if op.Mem {
			la = op.Lines[0] / LineBytes
			break
		}
	}
	for b.Next(&op) {
		if op.Mem {
			lb = op.Lines[0] / LineBytes
			break
		}
	}
	diff := int64(la) - int64(lb)
	if diff < 0 {
		diff = -diff
	}
	if diff <= int64(p.CoalescedLines*p.WarpsPerBlock) {
		t.Fatalf("scatter warps landed adjacent (%d apart) — looks coalesced", diff)
	}
}

// TestAddressesWithinFootprintProperty: every generated address must stay
// inside [base, base+footprint*LineBytes).
func TestAddressesWithinFootprintProperty(t *testing.T) {
	p, _ := ByAbbr("CT") // small footprint makes violations visible
	f := func(block uint16, warp uint8, seed uint16) bool {
		ws := NewWarpStream(&p, 1<<40, uint64(block), int(warp)%p.WarpsPerBlock, uint64(seed))
		var op Op
		for i := 0; i < 300 && ws.Next(&op); i++ {
			if !op.Mem {
				continue
			}
			for k := 0; k < op.NLines; k++ {
				off := op.Lines[k] - 1<<40
				if op.Lines[k] < 1<<40 || off >= p.FootprintLines*LineBytes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternString(t *testing.T) {
	if BlockStream.String() != "blockstream" || Scatter.String() != "scatter" {
		t.Fatal("Pattern.String broken")
	}
}

func TestProfileString(t *testing.T) {
	p, _ := ByAbbr("SB")
	if p.String() == "" {
		t.Fatal("empty profile string")
	}
}
