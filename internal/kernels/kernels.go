// Package kernels provides the synthetic GPGPU kernels driving the
// simulator. Real CUDA binaries are unavailable in this environment, so each
// of the paper's 15 applications (Table III) is modelled as a procedural
// per-warp instruction/address stream parameterised by memory intensity,
// coalescing, row-buffer locality, working-set size and thread-level
// parallelism, calibrated so that the kernel's alone DRAM-bandwidth
// utilisation approximates the paper's Table III characterisation (see
// DESIGN.md §2 for why this substitution preserves the evaluated behaviour).
package kernels

import (
	"fmt"

	"dasesim/internal/config"
)

// Pattern selects how a kernel's warps generate addresses.
type Pattern uint8

const (
	// BlockStream is coalesced block-cooperative streaming: the warps of a
	// thread block interleave over one shared sequential region, so their
	// concurrent requests cover adjacent lines — the access shape that
	// gives real GPU kernels high row-buffer locality.
	BlockStream Pattern = iota
	// Scatter gives every warp an independent cursor with short sequential
	// runs between random jumps: poorly coalesced, low row locality.
	Scatter
	// Strided walks the footprint with a fixed large stride (column-major
	// matrix access): deterministic, zero row reuse, and — when the stride
	// resonates with the bank interleave — severe bank camping.
	Strided
)

func (p Pattern) String() string {
	switch p {
	case Scatter:
		return "scatter"
	case Strided:
		return "strided"
	default:
		return "blockstream"
	}
}

// Profile statically describes one synthetic kernel.
type Profile struct {
	Name string // full application name
	Abbr string // two-letter abbreviation used in the paper's figures

	// MemFrac is the fraction of warp instructions that are memory
	// operations; the main memory-intensity knob. Memory instructions are
	// issued periodically (every 1/MemFrac instructions) so that the warps
	// of a block stay in loose lockstep, like real unrolled kernel loops.
	MemFrac float64
	// ComputeLat is the dependent-issue latency, in cycles, of a compute
	// instruction (the warp cannot issue again until it elapses).
	ComputeLat int
	// CoalescedLines is how many adjacent cache lines one memory
	// instruction touches (vectorised/multi-word accesses).
	CoalescedLines int
	// Pattern selects the address-generation shape.
	Pattern Pattern
	// SeqRun is the number of memory accesses a region is streamed for
	// before jumping to a new random region; long runs give high
	// row-buffer locality.
	SeqRun int
	// ScatterFrac is the fraction of memory instructions in a BlockStream
	// kernel whose lines land at random (uncoalesced gathers mixed into a
	// streaming kernel); the row-locality fine-tuning knob.
	ScatterFrac float64
	// StrideLines is the per-access line stride of the Strided pattern.
	StrideLines uint64
	// FootprintLines is the kernel's working set in cache lines; small
	// footprints hit in the shared L2 and make the kernel cache-sensitive.
	FootprintLines uint64
	// WriteFrac is the fraction of memory instructions that are stores.
	WriteFrac float64
	// BarrierEvery inserts a block-wide barrier (__syncthreads) after every
	// BarrierEvery instructions (0 = none). Barriers re-synchronise the
	// block's warps, restoring the coalesced-access adjacency that drifts
	// as warps diverge.
	BarrierEvery int
	// WarpsPerBlock and Blocks bound thread-level parallelism: an SM can
	// host at most floor(MaxWarps/WarpsPerBlock) blocks (and at most
	// MaxBlocks), and the kernel has Blocks thread blocks in total.
	WarpsPerBlock int
	Blocks        int
	// InstPerWarp is the instruction count each warp executes per block.
	InstPerWarp int

	// PaperBW is Table III's reported alone DRAM bandwidth utilisation,
	// kept for documentation and calibration tests.
	PaperBW float64
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s(%s: mem=%.3f row=%d fp=%d blocks=%d)",
		p.Abbr, p.Name, p.MemFrac, p.SeqRun, p.FootprintLines, p.Blocks)
}

// WithMemFrac returns a copy of the profile with a different memory
// intensity; used by the Figure 3 sweep (performance vs request service
// rate).
func (p Profile) WithMemFrac(f float64) Profile {
	p.MemFrac = f
	return p
}

// Validate reports the first structural problem with the profile.
func (p *Profile) Validate() error {
	switch {
	case p.MemFrac < 0 || p.MemFrac > 1:
		return fmt.Errorf("kernel %s: MemFrac %v out of [0,1]", p.Abbr, p.MemFrac)
	case p.ComputeLat <= 0:
		return fmt.Errorf("kernel %s: ComputeLat must be positive", p.Abbr)
	case p.ComputeLat >= config.WheelHorizon:
		// The SM would wake the warp ComputeLat % WheelHorizon cycles later.
		return fmt.Errorf("kernel %s: ComputeLat %d must be below the SM timing-wheel horizon %d", p.Abbr, p.ComputeLat, config.WheelHorizon)
	case p.CoalescedLines <= 0 || p.CoalescedLines > MaxLinesPerOp:
		return fmt.Errorf("kernel %s: CoalescedLines %d out of [1,%d]", p.Abbr, p.CoalescedLines, MaxLinesPerOp)
	case p.SeqRun <= 0:
		return fmt.Errorf("kernel %s: SeqRun must be positive", p.Abbr)
	case p.FootprintLines == 0:
		return fmt.Errorf("kernel %s: FootprintLines must be positive", p.Abbr)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("kernel %s: WriteFrac %v out of [0,1]", p.Abbr, p.WriteFrac)
	case p.WarpsPerBlock <= 0 || p.Blocks <= 0 || p.InstPerWarp <= 0:
		return fmt.Errorf("kernel %s: TLP parameters must be positive", p.Abbr)
	case p.BarrierEvery < 0:
		return fmt.Errorf("kernel %s: BarrierEvery must be non-negative", p.Abbr)
	}
	return nil
}

// MaxLinesPerOp bounds the fan-out of one memory instruction.
const MaxLinesPerOp = 8

// Op is one decoded warp instruction.
type Op struct {
	Mem        bool
	Write      bool
	Barrier    bool // block-wide barrier: the warp waits for its siblings
	ComputeLat uint32
	NLines     int
	Lines      [MaxLinesPerOp]uint64 // byte addresses, line-aligned
}

// LineBytes is the cache-line granularity of generated addresses. It must
// match config.CacheConfig.LineBytes of both cache levels.
const LineBytes = 128

// splitmix64 is the deterministic per-warp PRNG step.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// WarpStream generates the instruction stream of one warp of one thread
// block, deterministically from its block seed and warp index.
type WarpStream struct {
	p           *Profile
	base        uint64 // application address-space base
	blockSeed   uint64 // shared by all warps of the block
	warp        int    // index within the block
	remain      int    // instructions left
	n           uint64 // memory accesses performed so far
	issuedCount int
	memAcc      float64
}

// NewWarpStream builds the stream for warp index warp of the block
// identified by blockID, for the app whose address space starts at base and
// whose run seed is seed. All warps of a block share blockID and seed, so
// they cooperate on the same address regions.
func NewWarpStream(p *Profile, base uint64, blockID uint64, warp int, seed uint64) *WarpStream {
	bs := seed ^ blockID*0xc2b2ae3d27d4eb4f
	bs = bs*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	return &WarpStream{
		p:         p,
		base:      base,
		blockSeed: bs,
		warp:      warp,
		remain:    p.InstPerWarp,
	}
}

// Remaining returns the instructions the warp has yet to execute.
func (ws *WarpStream) Remaining() int { return ws.remain }

// ComputeRun consumes the maximal run of compute instructions at the head of
// the stream — every instruction up to, not including, the first one Next
// would decode as a memory operation, a barrier or the end of the stream —
// and returns its length and the run's dependent-issue latency. The stream
// is left exactly where n calls to Next would leave it (the same memAcc
// additions in the same order), so callers may mix the two freely; an SM
// issues a whole run by counting down instead of decoding n times. n is 0
// when the next instruction is not a compute instruction.
func (ws *WarpStream) ComputeRun() (n int, lat uint32) {
	p := ws.p
	limit := ws.remain
	if p.BarrierEvery > 0 {
		// Instructions left before issuedCount next lands on a multiple.
		if d := p.BarrierEvery - 1 - ws.issuedCount%p.BarrierEvery; d < limit {
			limit = d
		}
	}
	acc := ws.memAcc
	for n < limit {
		a := acc + p.MemFrac
		if !(a < 1) {
			break // Next repeats this addition and decodes the memory op
		}
		acc = a
		n++
	}
	ws.memAcc = acc
	ws.remain -= n
	ws.issuedCount += n
	return n, uint32(p.ComputeLat)
}

// Next decodes the warp's next instruction into op. It returns false when
// the warp has finished its block's work.
func (ws *WarpStream) Next(op *Op) bool {
	if ws.remain <= 0 {
		return false
	}
	ws.remain--
	ws.issuedCount++
	if ws.p.BarrierEvery > 0 && ws.issuedCount%ws.p.BarrierEvery == 0 {
		// Same instruction index on every warp of the block, so all warps
		// arrive at the same barriers.
		*op = Op{Barrier: true, ComputeLat: 1}
		return true
	}
	op.Barrier = false
	ws.memAcc += ws.p.MemFrac
	if ws.memAcc < 1 {
		op.Mem = false
		op.ComputeLat = uint32(ws.p.ComputeLat)
		op.NLines = 0
		return true
	}
	ws.memAcc--
	op.Mem = true
	op.ComputeLat = 0
	// The write decision is a deterministic hash of the block's access
	// index, shared across the block's warps (they execute the same code).
	h := ws.blockSeed + ws.n*0x9e3779b97f4a7c15
	wr := splitmix64(&h)
	op.Write = float64(wr>>11)/(1<<53) < ws.p.WriteFrac
	cl := ws.p.CoalescedLines
	op.NLines = cl
	pattern := ws.p.Pattern
	if pattern == BlockStream && ws.p.ScatterFrac > 0 {
		sh := ws.blockSeed ^ ws.n*0x2545f4914f6cdd1d ^ uint64(ws.warp+1)*0x9e3779b97f4a7c15
		sr := splitmix64(&sh)
		if float64(sr>>11)/(1<<53) < ws.p.ScatterFrac {
			pattern = Scatter
		}
	}
	switch pattern {
	case BlockStream:
		ws.blockStreamLines(op)
	case Strided:
		ws.stridedLines(op)
	default:
		ws.scatterLines(op)
	}
	ws.n++
	return true
}

// blockStreamLines implements the coalesced block-cooperative pattern: the
// block's W warps interleave over one shared region, each instruction
// covering CoalescedLines adjacent lines; the region changes every SeqRun
// accesses, derived from (blockSeed, n/SeqRun) so all warps jump together
// without shared state.
func (ws *WarpStream) blockStreamLines(op *Op) {
	p := ws.p
	w := uint64(p.WarpsPerBlock)
	cl := uint64(p.CoalescedLines)
	span := uint64(p.SeqRun) * w * cl // lines per region
	regions := p.FootprintLines / span
	if regions == 0 {
		regions = 1
	}
	h := ws.blockSeed ^ (ws.n/uint64(p.SeqRun))*0xd1342543de82ef95
	region := (splitmix64(&h) % regions) * span
	idx := ws.n % uint64(p.SeqRun)
	lineBase := region + idx*w*cl + uint64(ws.warp)*cl
	for i := uint64(0); i < cl; i++ {
		l := (lineBase + i) % p.FootprintLines
		op.Lines[i] = ws.base + l*LineBytes
	}
}

// stridedLines implements the column-walk pattern: access n of warp w lands
// at (w + n*W)*stride within the footprint — warps cover distinct columns
// in lockstep, every access a fixed stride apart.
func (ws *WarpStream) stridedLines(op *Op) {
	p := ws.p
	stride := p.StrideLines
	if stride == 0 {
		stride = 64
	}
	w := uint64(p.WarpsPerBlock)
	base := (uint64(ws.warp) + ws.n*w) * stride
	for i := 0; i < p.CoalescedLines; i++ {
		l := (base + uint64(i)) % p.FootprintLines
		op.Lines[i] = ws.base + l*LineBytes
	}
}

// scatterLines implements the poorly-coalesced pattern: each warp has an
// independent cursor with SeqRun-access sequential runs between random
// jumps, and the instruction's CoalescedLines lines are strided apart
// (un-coalesced gather).
func (ws *WarpStream) scatterLines(op *Op) {
	p := ws.p
	h := ws.blockSeed ^ uint64(ws.warp+1)*0xff51afd7ed558ccd ^ (ws.n/uint64(p.SeqRun))*0xd1342543de82ef95
	start := splitmix64(&h) % p.FootprintLines
	idx := ws.n % uint64(p.SeqRun)
	// The first line continues the warp's short sequential run; any
	// further lines of the instruction land far away (un-coalesced
	// gather).
	op.Lines[0] = ws.base + (start+idx)%p.FootprintLines*LineBytes
	for i := 1; i < p.CoalescedLines; i++ {
		hh := h + ws.n*0x2545f4914f6cdd1d + uint64(i)*0x9e3779b97f4a7c15
		l := splitmix64(&hh) % p.FootprintLines
		op.Lines[i] = ws.base + l*LineBytes
	}
}
