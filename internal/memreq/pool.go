package memreq

import "fmt"

// Pool is a free-list recycler for Requests. The cycle engine allocates one
// Request per memory access on its hot path; recycling them once their reply
// is delivered (or their write completes) makes the steady-state inner loop
// allocation-free.
//
// The pool is deliberately not concurrency-safe: a GPU steps on one goroutine
// and shares one pool across all its SMs and partitions. Requests handed out
// by Get are fully zeroed, so pooling cannot leak state (L2Miss, BankEnter,
// Row, ...) between the transactions that reuse a slot — a hard requirement
// for the engine's byte-identical determinism contract.
//
// EnableChecks switches the pool into a debug mode that enforces that
// contract at run time (double-Put, skipped zeroing, writes after Put); the
// default mode adds a single nil check per operation and no allocations.
type Pool struct {
	free []*Request

	// checks is non-nil in debug mode (EnableChecks); all hygiene state
	// lives behind it so the production pool stays two slices of machinery.
	checks *poolChecks
}

// poolChecks is the hygiene state of a checked pool.
type poolChecks struct {
	// freeSet holds every request the pool currently owns (free list or
	// quarantine); a Put of a member is a double-Put.
	freeSet map[*Request]struct{}
	// gens counts completed lifetimes per request pointer: bumped on every
	// Put. The simulator's invariant checker reads it to label requests when
	// reporting a pointer that is both live in the engine and owned by the
	// pool (a use-after-Put).
	gens map[*Request]uint64
	// quarantine delays reuse of Put requests so a stale writer hits a
	// request the pool still owns — the rotation check below turns that
	// write into a loud failure instead of silent state corruption.
	quarantine []*Request
}

// poolChunk is how many Requests a dry pool allocates at once. Chunked
// backing arrays keep recycled requests contiguous in memory (cache-friendly)
// and amortise allocator round-trips during warm-up.
const poolChunk = 64

// quarantineDepth is how many Put requests a checked pool holds back from
// reuse; deeper quarantine widens the window in which a write-after-Put is
// caught at the offending request rather than as downstream corruption.
const quarantineDepth = 256

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if p.checks != nil {
			p.checks.take(r)
		}
		return r
	}
	chunk := make([]Request, poolChunk)
	for i := 1; i < poolChunk; i++ {
		p.free = append(p.free, &chunk[i])
	}
	if p.checks != nil {
		for i := 1; i < poolChunk; i++ {
			p.checks.freeSet[&chunk[i]] = struct{}{}
		}
	}
	return &chunk[0]
}

// Put recycles a Request. The caller must not retain the pointer; the request
// is zeroed immediately so stale fields cannot survive into its next use.
func (p *Pool) Put(r *Request) {
	if p.checks != nil {
		p.checks.put(p, r)
		return
	}
	*r = Request{}
	p.free = append(p.free, r)
}

// Len reports how many recycled requests are currently free (test hook).
func (p *Pool) Len() int { return len(p.free) }

// EnableChecks switches the pool into hygiene-checking mode:
//
//   - a Put of a request the pool already owns panics (double-Put);
//   - Put requests pass through a fixed-depth quarantine before becoming
//     reusable, and leave it only if still fully zeroed, so a caller that
//     wrote to a request after Put panics at the rotation instead of
//     corrupting an unrelated later transaction;
//   - Get verifies the handed-out request is fully zeroed, catching a Put
//     path that skipped (or partially skipped) the zeroing.
//
// Checking changes which pointers are recycled when, but never the values the
// engine observes, so simulation results are byte-identical either way. It is
// not meant for production hot paths; the simulator enables it under
// sim.WithInvariantChecks.
func (p *Pool) EnableChecks() {
	if p.checks != nil {
		return
	}
	p.checks = &poolChecks{
		freeSet: make(map[*Request]struct{}, len(p.free)+quarantineDepth),
		gens:    map[*Request]uint64{},
	}
	for _, r := range p.free {
		p.checks.freeSet[r] = struct{}{}
	}
}

// ChecksEnabled reports whether the pool is in hygiene-checking mode.
func (p *Pool) ChecksEnabled() bool { return p.checks != nil }

// Owned reports whether the checked pool currently owns r (free or
// quarantined) — i.e. whether handing r to the engine would be a
// use-after-Put. Always false when checks are disabled.
func (p *Pool) Owned(r *Request) bool {
	if p.checks == nil {
		return false
	}
	_, ok := p.checks.freeSet[r]
	return ok
}

// Generation returns how many completed lifetimes the checked pool has seen
// for r (0 when checks are disabled or r was never Put).
func (p *Pool) Generation(r *Request) uint64 {
	if p.checks == nil {
		return 0
	}
	return p.checks.gens[r]
}

// CheckInvariants scans a checked pool for requests that were written to
// after Put but have not yet reached the quarantine rotation check. It
// returns nil for unchecked pools.
func (p *Pool) CheckInvariants() error {
	if p.checks == nil {
		return nil
	}
	for _, r := range p.checks.quarantine {
		if *r != (Request{}) {
			return fmt.Errorf("memreq: pool hygiene: quarantined request %p (gen %d) was written after Put: %+v", r, p.checks.gens[r], r)
		}
	}
	for _, r := range p.free {
		if r != nil && *r != (Request{}) {
			return fmt.Errorf("memreq: pool hygiene: free request %p (gen %d) is not zeroed: %+v", r, p.checks.gens[r], r)
		}
	}
	return nil
}

// take records that r left the pool, verifying it is handed out zeroed.
func (c *poolChecks) take(r *Request) {
	delete(c.freeSet, r)
	if *r != (Request{}) {
		panic(fmt.Sprintf("memreq: pool hygiene: Get returned a non-zero request %p (gen %d): %+v — Put skipped zeroing or the request was written after Put", r, c.gens[r], r))
	}
}

// put runs the checked Put: double-Put detection, zeroing, quarantine
// rotation with a written-after-Put check on the request leaving quarantine.
func (c *poolChecks) put(p *Pool, r *Request) {
	if _, dup := c.freeSet[r]; dup {
		panic(fmt.Sprintf("memreq: pool hygiene: double Put of request %p (gen %d)", r, c.gens[r]))
	}
	c.freeSet[r] = struct{}{}
	c.gens[r]++
	*r = Request{}
	c.quarantine = append(c.quarantine, r)
	if len(c.quarantine) > quarantineDepth {
		old := c.quarantine[0]
		copy(c.quarantine, c.quarantine[1:])
		c.quarantine = c.quarantine[:len(c.quarantine)-1]
		if *old != (Request{}) {
			panic(fmt.Sprintf("memreq: pool hygiene: request %p (gen %d) was written after Put: %+v", old, c.gens[old], old))
		}
		p.free = append(p.free, old)
	}
}
