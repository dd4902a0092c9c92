package dram

import (
	"testing"

	"dasesim/internal/memreq"
)

// benchTrace is a fixed two-app arrival stream over every bank of the
// default controller in which consecutive requests to a bank practically
// never share a row (rows drawn from 2^16 by a fixed xorshift), so every
// request needs an activation.
func benchTrace(n int) []memreq.Request {
	cfg, _ := testSetup()
	trace := make([]memreq.Request, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range trace {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rowSeq := x % (1 << 20)
		trace[i] = memreq.Request{App: memreq.AppID(i % 2), Addr: rowSeq * uint64(cfg.RowBytes)}
	}
	return trace
}

// BenchmarkControllerCycle replays benchTrace through Enqueue/Cycle/Replies,
// one op per core cycle. An arrival is offered every benchArrivalGap cycles —
// faster than the tRRD/tFAW window admits activations — and waits while the
// request buffer is full, so in steady state the buffer is full, most banks
// are free with an open row and no hit behind it, and the activation window
// is closed most cycles: the state in which a per-cycle scan of every free
// bank's lookahead window finds nothing, every cycle.
func BenchmarkControllerCycle(b *testing.B) {
	const benchArrivalGap = 12
	cfg, amap := testSetup()
	trace := benchTrace(4096) // far more than the buffer plus the banks hold
	c := NewController(cfg, amap, 0, 2)
	next, served := 0, 0
	step := func(now uint64) {
		if now%benchArrivalGap == 0 && c.CanAccept() {
			c.Enqueue(&trace[next%len(trace)])
			next++
		}
		c.Cycle(now)
		served += len(c.Replies())
	}
	// Reach steady state, and check it is the state described above.
	const warm = 50_000
	closed := 0
	for now := uint64(0); now < warm; now++ {
		if !c.actAllowed(now) {
			closed++
		}
		step(now)
	}
	if c.CanAccept() || closed < warm/2 {
		b.Fatalf("warm-up left %d queued, window closed %d of %d cycles", c.QueueLen(), closed, warm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + uint64(i))
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("nothing served")
	}
}
