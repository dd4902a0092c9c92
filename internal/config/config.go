// Package config holds the simulated GPU configuration.
//
// The default configuration reproduces Table II of the paper: a GTX 480-like
// device with 16 SMs at 1400 MHz, a crossbar interconnect, and 6 memory
// partitions, each with an L2 slice and an FR-FCFS memory controller over 16
// DRAM banks (924 MHz, tRP = tRCD = 12 DRAM cycles).
//
// The simulator runs in a single clock domain (the SM core clock). DRAM timing
// parameters are expressed in core cycles, scaled by the 1400/924 clock ratio,
// so one 128-byte burst occupies the data bus for 6 core cycles; with 6 memory
// controllers the peak bandwidth is 128 B * 6 / 6 cycles = 128 B/cycle, which
// at 1.4 GHz is ~179 GB/s, matching the GTX 480's 177 GB/s.
package config

import (
	"errors"
	"fmt"
)

// Config describes the whole simulated GPU. The zero value is not usable;
// start from Default and override fields as needed.
type Config struct {
	SM     SMConfig
	L1     CacheConfig
	L2     CacheConfig // per-partition slice
	ICNT   ICNTConfig
	Mem    MemConfig
	NumSMs int // number of streaming multiprocessors
	NumMCs int // number of memory partitions / controllers

	// IntervalCycles is the estimation interval (paper: 50K cycles).
	IntervalCycles uint64

	// ATDSampledSets is the number of L2 sets tracked by each application's
	// auxiliary tag directory (paper: 8 sampled sets).
	ATDSampledSets int

	// RequestMaxFactor is the empirical derating of peak request throughput
	// used by the MBB classifier (paper Eq. 20: 0.6).
	RequestMaxFactor float64
}

// SMConfig describes one streaming multiprocessor.
type SMConfig struct {
	MaxWarps       int // resident warp limit (paper: 48 warps = 1536 threads)
	MaxBlocks      int // resident thread-block limit (Fermi: 8)
	WarpSize       int // threads per warp
	IssueWidth     int // warp instructions issued per cycle
	SharedMemBytes int // shared memory per SM (48 KB)
	Registers      int // register file size (32684 in the paper's table)
}

// CacheConfig describes a set-associative cache (L1 per SM or an L2 slice per
// memory partition).
type CacheConfig struct {
	SizeBytes  int
	Assoc      int
	LineBytes  int
	HitLatency uint64 // core cycles from access to data for a hit
	MSHRs      int    // distinct outstanding miss lines
	MSHRMerge  int    // max merged requests per MSHR entry

	// Writeback makes the cache track dirty lines and emit a write-back
	// transaction when a dirty line is evicted (otherwise stores that hit
	// are absorbed and evictions are silent). Off by default: the paper's
	// Table II does not specify the L2 write policy.
	Writeback bool
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// ICNTConfig describes the SM<->memory-partition crossbar.
type ICNTConfig struct {
	Latency       uint64 // fixed traversal latency in core cycles
	FlitBytes     int    // bytes moved per port per cycle
	RequestBytes  int    // size of an address/command packet
	InQueueDepth  int    // per-port request queue depth
	OutQueueDepth int    // per-port reply queue depth
}

// MemConfig describes one memory controller and its DRAM banks, with all
// timings in core cycles (Table II's DRAM-cycle values scaled by 1400/924).
type MemConfig struct {
	NumBanks     int
	RowBytes     int    // row-buffer size per bank
	TRCD         uint64 // ACT -> CAS (paper: 12 DRAM cycles -> 18 core cycles)
	TRP          uint64 // PRE -> ACT
	TCAS         uint64 // CAS -> first data
	TBurst       uint64 // data-bus cycles per cache-line transfer
	TRRD         uint64 // min gap between two ACTs on one controller
	TFAW         uint64 // window in which at most 4 ACTs may issue
	QueueDepth   int    // request buffer entries per controller
	L2QueueDepth int    // partition-input queue depth

	// TREFI/TRFC enable periodic all-bank refresh when both are nonzero:
	// every TREFI cycles the controller stalls all banks for TRFC cycles
	// and closes every row. The paper's Table II lists no refresh timing,
	// so the default leaves refresh off; see BenchmarkAblationRefresh.
	TREFI uint64
	TRFC  uint64

	// AppAwareRR switches the memory scheduler from plain FR-FCFS to the
	// application-aware round-robin of Jog et al. (GPGPU 2014, the paper's
	// related work): the controller rotates across applications with
	// pending requests, applying FR-FCFS within the chosen application, to
	// avoid starvation induced by high-row-locality co-runners.
	AppAwareRR bool
}

// Default returns the Table II baseline configuration.
func Default() Config {
	return Config{
		NumSMs: 16,
		NumMCs: 6,
		SM: SMConfig{
			MaxWarps:       48,
			MaxBlocks:      8,
			WarpSize:       32,
			IssueWidth:     2,
			SharedMemBytes: 48 * 1024,
			Registers:      32684,
		},
		L1: CacheConfig{
			SizeBytes:  16 * 1024,
			Assoc:      4,
			LineBytes:  128,
			HitLatency: 30,
			MSHRs:      32,
			MSHRMerge:  8,
		},
		L2: CacheConfig{
			SizeBytes:  128 * 1024, // 768 KB total / 6 partitions
			Assoc:      8,
			LineBytes:  128,
			HitLatency: 30,
			MSHRs:      192,
			MSHRMerge:  8,
		},
		ICNT: ICNTConfig{
			Latency:       8,
			FlitBytes:     32,
			RequestBytes:  8,
			InQueueDepth:  64,
			OutQueueDepth: 32,
		},
		Mem: MemConfig{
			NumBanks:     16,
			RowBytes:     2048,
			TRCD:         18, // 12 DRAM cycles * 1400/924
			TRP:          18,
			TCAS:         18,
			TBurst:       6,  // 128 B line over the DRAM bus, in core cycles
			TRRD:         15, // activate-to-activate gap
			TFAW:         60, // four-activate window (power constraint)
			QueueDepth:   256,
			L2QueueDepth: 32,
		},
		IntervalCycles:   50_000,
		ATDSampledSets:   8,
		RequestMaxFactor: 0.6,
	}
}

// Large returns a bigger device (24 SMs, 8 memory partitions, 1 MB L2) in
// the spirit of the Kepler-class parts the paper cites, for robustness
// studies of the estimation model across GPU generations (experiment Ext.E).
func Large() Config {
	c := Default()
	c.NumSMs = 24
	c.NumMCs = 8
	c.L2.SizeBytes = 128 * 1024 // 8 slices -> 1 MB total
	return c
}

// WheelHorizon is the span, in core cycles, of an SM's timing wheel: a warp
// wake scheduled d cycles ahead lands in slot (now+d) % WheelHorizon, so any
// latency an SM schedules by — L1.HitLatency here, a kernel's ComputeLat in
// kernels.Profile.Validate — must be below it or the wake aliases to an
// earlier cycle. maxWheelWarps is what the wheel's packed 16-bit entry
// (warp<<1 | kind, smcore.wheelEntry) leaves for the warp index, the bound on
// SM.MaxWarps.
const (
	WheelHorizon  = 128
	maxWheelWarps = 1 << 15
)

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.NumMCs <= 0:
		return errors.New("config: NumMCs must be positive")
	case c.SM.MaxWarps <= 0 || c.SM.WarpSize <= 0 || c.SM.IssueWidth <= 0:
		return errors.New("config: SM warp parameters must be positive")
	case c.SM.MaxWarps > maxWheelWarps:
		return fmt.Errorf("config: SM.MaxWarps %d exceeds the %d warps a timing-wheel entry can name", c.SM.MaxWarps, maxWheelWarps)
	case c.SM.MaxBlocks <= 0:
		return errors.New("config: SM.MaxBlocks must be positive")
	case c.IntervalCycles == 0:
		return errors.New("config: IntervalCycles must be positive")
	case c.ATDSampledSets <= 0:
		return errors.New("config: ATDSampledSets must be positive")
	case c.RequestMaxFactor <= 0 || c.RequestMaxFactor > 1:
		return fmt.Errorf("config: RequestMaxFactor %v out of (0,1]", c.RequestMaxFactor)
	case c.Mem.NumBanks <= 0 || c.Mem.RowBytes <= 0:
		return errors.New("config: DRAM bank parameters must be positive")
	case c.Mem.NumBanks > 64:
		// The DRAM controller keeps one bit per bank in 64-bit masks (pending
		// banks, per-app BLP); a 65th bank would silently drop out of both.
		return fmt.Errorf("config: Mem.NumBanks %d exceeds the 64 banks a controller's masks hold", c.Mem.NumBanks)
	case c.Mem.TBurst == 0:
		return errors.New("config: Mem.TBurst must be positive")
	case c.Mem.QueueDepth <= 0 || c.Mem.L2QueueDepth <= 0:
		return errors.New("config: memory queue depths must be positive")
	case (c.Mem.TREFI == 0) != (c.Mem.TRFC == 0):
		return errors.New("config: TREFI and TRFC must be set together")
	case c.Mem.TREFI > 0 && c.Mem.TRFC >= c.Mem.TREFI:
		return errors.New("config: TRFC must be shorter than TREFI")
	case c.ICNT.FlitBytes <= 0 || c.ICNT.RequestBytes <= 0:
		return errors.New("config: ICNT packet sizes must be positive")
	case c.ICNT.InQueueDepth <= 0 || c.ICNT.OutQueueDepth <= 0:
		return errors.New("config: ICNT queue depths must be positive")
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1", c.L1}, {"L2", c.L2}} {
		if err := cc.c.validate(); err != nil {
			return fmt.Errorf("config: %s: %w", cc.name, err)
		}
	}
	if c.L1.HitLatency >= WheelHorizon {
		// The SM would wake the warp HitLatency % WheelHorizon cycles later.
		return fmt.Errorf("config: L1.HitLatency %d must be below the SM timing-wheel horizon %d", c.L1.HitLatency, WheelHorizon)
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return errors.New("config: L1 and L2 line sizes must match")
	}
	if c.ATDSampledSets > c.L2.Sets() {
		return fmt.Errorf("config: ATDSampledSets %d exceeds L2 sets %d", c.ATDSampledSets, c.L2.Sets())
	}
	return nil
}

func (c CacheConfig) validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0:
		return errors.New("size, associativity and line size must be positive")
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("line size %d must be a power of two", c.LineBytes)
	case c.SizeBytes%(c.Assoc*c.LineBytes) != 0:
		return fmt.Errorf("size %d not divisible by assoc*line %d", c.SizeBytes, c.Assoc*c.LineBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("set count %d must be a power of two", c.Sets())
	case c.MSHRs <= 0 || c.MSHRMerge <= 0:
		return errors.New("MSHR parameters must be positive")
	}
	return nil
}

// PeakRequestsPerCycle returns the aggregate peak rate at which the DRAM
// subsystem can deliver cache lines, in requests per core cycle (one line per
// TBurst cycles per controller).
func (c Config) PeakRequestsPerCycle() float64 {
	return float64(c.NumMCs) / float64(c.Mem.TBurst)
}

// PeakActivationsPerCycle returns the aggregate peak row-activation rate
// permitted by the tFAW power window (four ACTs per window per controller).
func (c Config) PeakActivationsPerCycle() float64 {
	if c.Mem.TFAW == 0 {
		return c.PeakRequestsPerCycle()
	}
	return float64(c.NumMCs) * 4 / float64(c.Mem.TFAW)
}

// RequestMax returns the derated maximum number of requests the DRAM can
// serve in the given number of cycles (paper Eq. 20).
func (c Config) RequestMax(cycles uint64) float64 {
	return c.PeakRequestsPerCycle() * float64(cycles) * c.RequestMaxFactor
}
