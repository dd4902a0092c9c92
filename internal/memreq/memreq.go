// Package memreq defines the memory-request currency that flows between the
// SMs, the interconnect, the L2 slices and the DRAM controllers, plus the
// address-mapping helpers shared by all of them.
package memreq

import "fmt"

// AppID identifies one concurrently running application (kernel). IDs are
// dense and start at 0; InvalidApp marks unowned resources.
type AppID int

// InvalidApp is the AppID of resources not owned by any application.
const InvalidApp AppID = -1

// Kind distinguishes read and write traffic.
type Kind uint8

const (
	// Read is a load that must return data to the SM.
	Read Kind = iota
	// Write is a store; it is acknowledged but returns no data.
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Request is one cache-line-sized memory transaction. A single warp memory
// instruction may fan out into several Requests (one per distinct line).
type Request struct {
	App    AppID
	SM     int    // issuing SM index
	Warp   int    // issuing warp slot within the SM
	Addr   uint64 // line-aligned byte address
	Kind   Kind
	Issued uint64 // core cycle at which the SM issued the request

	// L2Miss is set by the partition when the request missed in L2 and went
	// to DRAM; used for statistics only.
	L2Miss bool

	// BankEnter is the cycle the request was scheduled into a DRAM bank;
	// used to account per-request bank occupancy (TimeRequest counter).
	BankEnter uint64

	// Row caches AddrMap.Row(Addr), filled by the DRAM controller at
	// enqueue so the FR-FCFS scheduler's per-cycle queue scans compare a
	// field instead of redoing the row-address division.
	Row uint64
}

func (r *Request) String() string {
	return fmt.Sprintf("req{app=%d sm=%d warp=%d addr=%#x %s}", r.App, r.SM, r.Warp, r.Addr, r.Kind)
}

// AddrMap translates a line address into (partition, bank, row, cache set)
// coordinates, GPU-style: consecutive lines interleave across memory
// partitions; within a partition, consecutive lines fill the columns of one
// row of one bank (preserving row-buffer locality for streaming accesses);
// banks interleave at row granularity with a row-swizzle so different rows
// of a stream occupy different banks (bank-level parallelism).
type AddrMap struct {
	LineBytes     int
	NumPartitions int
	NumBanks      int
	RowBytes      int

	lineShift    uint
	linesPerRow  uint64 // row-buffer capacity in lines
	rowsPerSwizz uint64
}

// NewAddrMap builds an address map. LineBytes and RowBytes must be powers of
// two; NumPartitions and NumBanks may be arbitrary positive counts.
func NewAddrMap(lineBytes, numPartitions, numBanks, rowBytes int) AddrMap {
	m := AddrMap{
		LineBytes:     lineBytes,
		NumPartitions: numPartitions,
		NumBanks:      numBanks,
		RowBytes:      rowBytes,
	}
	m.lineShift = log2(uint64(lineBytes))
	m.linesPerRow = uint64(rowBytes / lineBytes)
	if m.linesPerRow == 0 {
		m.linesPerRow = 1
	}
	return m
}

func log2(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// LineAddr aligns a byte address down to its cache line.
func (m AddrMap) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(m.LineBytes) - 1)
}

// chanLine returns the within-partition line index of an address.
func (m AddrMap) chanLine(addr uint64) uint64 {
	return (addr >> m.lineShift) / uint64(m.NumPartitions)
}

// Partition returns the memory partition servicing the address. Consecutive
// lines interleave across partitions, with a XOR fold of coarse-grained bits
// (changing every ~256 KB) so large-stride streams still spread out without
// breaking sequential-run locality.
func (m AddrMap) Partition(addr uint64) int {
	line := addr >> m.lineShift
	fold := line ^ (line >> 11)
	return int(fold % uint64(m.NumPartitions))
}

// Bank returns the DRAM bank within the partition. Banks interleave at row
// granularity, XOR-swizzled by the row index so that row-strided patterns
// spread across banks.
func (m AddrMap) Bank(addr uint64) int {
	rowSeq := m.chanLine(addr) / m.linesPerRow
	b := rowSeq ^ (rowSeq / uint64(m.NumBanks))
	return int(b % uint64(m.NumBanks))
}

// Row returns the DRAM row within the bank.
func (m AddrMap) Row(addr uint64) uint64 {
	return m.chanLine(addr) / m.linesPerRow / uint64(m.NumBanks)
}

// CacheSet returns the set index for a cache with the given number of sets
// (must be a power of two).
func (m AddrMap) CacheSet(addr uint64, sets int) int {
	line := addr >> m.lineShift
	return int((line ^ line>>10) & uint64(sets-1))
}
