package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.NumSMs != 16 {
		t.Errorf("NumSMs = %d, Table II says 16", c.NumSMs)
	}
	if c.NumMCs != 6 {
		t.Errorf("NumMCs = %d, Table II says 6", c.NumMCs)
	}
	if c.SM.MaxWarps != 48 || c.SM.MaxWarps*c.SM.WarpSize != 1536 {
		t.Errorf("warp capacity %d/%d threads, Table II says 48/1536", c.SM.MaxWarps, c.SM.MaxWarps*c.SM.WarpSize)
	}
	if c.L1.SizeBytes != 16*1024 || c.L1.Assoc != 4 {
		t.Errorf("L1 %dB %d-way, Table II says 16KB 4-way", c.L1.SizeBytes, c.L1.Assoc)
	}
	if got := c.NumMCs * c.L2.SizeBytes; got != 768*1024 {
		t.Errorf("total L2 = %d, Table II says 768KB", got)
	}
	if c.L2.LineBytes != 128 {
		t.Errorf("line size %d, Table II says 128B", c.L2.LineBytes)
	}
	if c.Mem.NumBanks != 16 {
		t.Errorf("banks/MC = %d, Table II says 16", c.Mem.NumBanks)
	}
	// tRP = tRCD = 12 DRAM cycles at 924 MHz = 18 core cycles at 1400 MHz.
	if c.Mem.TRP != 18 || c.Mem.TRCD != 18 {
		t.Errorf("tRP/tRCD = %d/%d core cycles, want 18/18", c.Mem.TRP, c.Mem.TRCD)
	}
	if c.IntervalCycles != 50_000 {
		t.Errorf("interval = %d, paper uses 50K cycles", c.IntervalCycles)
	}
	if c.ATDSampledSets != 8 {
		t.Errorf("sampled ATD sets = %d, paper uses 8", c.ATDSampledSets)
	}
	if c.RequestMaxFactor != 0.6 {
		t.Errorf("RequestMaxFactor = %v, Eq. 20 uses 0.6", c.RequestMaxFactor)
	}
}

func TestLargeValidates(t *testing.T) {
	c := Large()
	if err := c.Validate(); err != nil {
		t.Fatalf("Large config invalid: %v", err)
	}
	if c.NumSMs != 24 || c.NumMCs != 8 {
		t.Fatalf("Large = %d SMs / %d MCs", c.NumSMs, c.NumMCs)
	}
	if got := c.NumMCs * c.L2.SizeBytes; got != 1024*1024 {
		t.Fatalf("Large total L2 = %d, want 1MB", got)
	}
}

func TestPeakBandwidthMatchesGTX480(t *testing.T) {
	c := Default()
	// 1 line per TBurst per MC: bytes/cycle * 1.4 GHz should be ~177 GB/s.
	bytesPerCycle := c.PeakRequestsPerCycle() * float64(c.L2.LineBytes)
	gbps := bytesPerCycle * 1.4e9 / 1e9
	if gbps < 160 || gbps > 200 {
		t.Fatalf("peak bandwidth %.1f GB/s, GTX 480 is ~177", gbps)
	}
	// Eq. 20's inputs, which sim.IntervalSnapshot.RequestMax multiplies:
	// 1 line/cycle aggregate, derated by 0.6.
	if c.PeakRequestsPerCycle() != 1 || c.RequestMaxFactor != 0.6 {
		t.Fatalf("Eq. 20 inputs: %v lines/cycle × %v", c.PeakRequestsPerCycle(), c.RequestMaxFactor)
	}
}

func TestPeakActivationsPerCycle(t *testing.T) {
	c := Default()
	want := 6.0 * 4 / float64(c.Mem.TFAW)
	if got := c.PeakActivationsPerCycle(); got != want {
		t.Fatalf("PeakActivationsPerCycle = %v, want %v", got, want)
	}
	c.Mem.TFAW = 0
	if got := c.PeakActivationsPerCycle(); got != c.PeakRequestsPerCycle() {
		t.Fatalf("disabled tFAW should fall back to bus peak, got %v", got)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"sms", func(c *Config) { c.NumSMs = 0 }, "NumSMs"},
		{"mcs", func(c *Config) { c.NumMCs = 0 }, "NumMCs"},
		{"warps", func(c *Config) { c.SM.MaxWarps = 0 }, "warp"},
		{"warps-over-wheel-entry", func(c *Config) { c.SM.MaxWarps = maxWheelWarps + 1 }, "timing-wheel entry"},
		{"blocks", func(c *Config) { c.SM.MaxBlocks = 0 }, "MaxBlocks"},
		{"l1-hit-latency-at-horizon", func(c *Config) { c.L1.HitLatency = WheelHorizon }, "timing-wheel horizon"},
		{"l1-hit-latency-past-horizon", func(c *Config) { c.L1.HitLatency = 200 }, "timing-wheel horizon"},
		{"interval", func(c *Config) { c.IntervalCycles = 0 }, "Interval"},
		{"atd", func(c *Config) { c.ATDSampledSets = 0 }, "ATD"},
		{"atd-too-big", func(c *Config) { c.ATDSampledSets = 1 << 20 }, "exceeds"},
		{"reqmax", func(c *Config) { c.RequestMaxFactor = 0 }, "RequestMaxFactor"},
		{"banks", func(c *Config) { c.Mem.NumBanks = 0 }, "bank"},
		{"banks-over-mask", func(c *Config) { c.Mem.NumBanks = 65 }, "64 banks"},
		{"burst", func(c *Config) { c.Mem.TBurst = 0 }, "TBurst"},
		{"queues", func(c *Config) { c.Mem.QueueDepth = 0 }, "queue"},
		{"flits", func(c *Config) { c.ICNT.FlitBytes = 0 }, "packet"},
		{"icntq", func(c *Config) { c.ICNT.InQueueDepth = 0 }, "queue"},
		{"l1line", func(c *Config) { c.L1.LineBytes = 100 }, "L1"},
		{"l1mshr", func(c *Config) { c.L1.MSHRs = 0 }, "L1"},
		{"linemismatch", func(c *Config) { c.L1.LineBytes = 64; c.L1.SizeBytes = 16 * 1024 }, "line sizes"},
		{"l2size", func(c *Config) { c.L2.SizeBytes = 0 }, "L2: size"},
		{"l2divisible", func(c *Config) { c.L2.SizeBytes = 3*c.L2.Assoc*c.L2.LineBytes + c.L2.LineBytes }, "not divisible"},
		{"l2sets", func(c *Config) { c.L2.SizeBytes = 3 * c.L2.Assoc * c.L2.LineBytes }, "set count 3"},
		{"refresh-pair", func(c *Config) { c.Mem.TREFI, c.Mem.TRFC = 100, 0 }, "together"},
		{"refresh-order", func(c *Config) { c.Mem.TREFI, c.Mem.TRFC = 100, 100 }, "shorter"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: bad config accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateBankMaskBound: 64 banks is the most a controller's bank masks
// describe, and it is accepted.
func TestValidateBankMaskBound(t *testing.T) {
	c := Default()
	c.Mem.NumBanks = 64
	if err := c.Validate(); err != nil {
		t.Fatalf("64 banks rejected: %v", err)
	}
}

// TestValidateWheelBounds: the largest latency and warp count the SM's timing
// wheel represents are accepted, and the L2's hit latency (not scheduled on
// the wheel) is not bounded by it.
func TestValidateWheelBounds(t *testing.T) {
	c := Default()
	c.L1.HitLatency = WheelHorizon - 1
	c.L2.HitLatency = 4 * WheelHorizon
	c.SM.MaxWarps = maxWheelWarps
	if err := c.Validate(); err != nil {
		t.Fatalf("in-bounds wheel configuration rejected: %v", err)
	}
}

// TestFingerprint: equal configurations hash equal, and changing one field
// changes the hash.
func TestFingerprint(t *testing.T) {
	a, b := Default(), Default()
	if a.Fingerprint() != b.Fingerprint() || len(a.Fingerprint()) != 64 {
		t.Fatalf("fingerprints %q, %q: want one 64-hex-digit hash", a.Fingerprint(), b.Fingerprint())
	}
	b.IntervalCycles++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("IntervalCycles left the fingerprint unchanged")
	}
}

func TestCacheSets(t *testing.T) {
	cc := CacheConfig{SizeBytes: 16 * 1024, Assoc: 4, LineBytes: 128}
	if got := cc.Sets(); got != 32 {
		t.Fatalf("Sets = %d, want 32", got)
	}
}
