package faults

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInactiveIsNoop proves unarmed injection points cost nothing and return
// nil, the production fast path.
func TestInactiveIsNoop(t *testing.T) {
	Deactivate()
	if err := Fire("sim.step"); err != nil {
		t.Fatalf("inactive Fire returned %v", err)
	}
}

// TestErrorMode checks the error path: wrapped ErrInjected, point name in
// the message, Count exhaustion, and the Fired counter.
func TestErrorMode(t *testing.T) {
	r := New(1)
	r.Arm(Spec{Point: "journal.append", Mode: ModeError, Count: 2})
	Activate(r)
	defer Deactivate()

	for i := 0; i < 2; i++ {
		err := Fire("journal.append")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("fire %d: err = %v, want ErrInjected", i, err)
		}
		if !strings.Contains(err.Error(), "journal.append") {
			t.Fatalf("error does not name the point: %v", err)
		}
	}
	if err := Fire("journal.append"); err != nil {
		t.Fatalf("after Count exhausted: %v", err)
	}
	if got := r.Fired("journal.append"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	// Other points stay clean.
	if err := Fire("sim.step"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

// TestCustomError checks Spec.Err overrides ErrInjected.
func TestCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	r := New(1)
	r.Arm(Spec{Point: "p", Mode: ModeError, Err: sentinel})
	Activate(r)
	defer Deactivate()
	if err := Fire("p"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

// TestPanicMode checks ModePanic panics with the point name.
func TestPanicMode(t *testing.T) {
	r := New(1)
	r.Arm(Spec{Point: "server.worker", Mode: ModePanic, Count: 1})
	Activate(r)
	defer Deactivate()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(v.(string), "server.worker") {
			t.Fatalf("panic value %q does not name the point", v)
		}
	}()
	_ = Fire("server.worker")
}

// TestSleepModeCtx proves an armed sleep ends at the context deadline with
// ctx.Err() — timing out instead of hanging.
func TestSleepModeCtx(t *testing.T) {
	r := New(1)
	r.Arm(Spec{Point: "sim.step", Mode: ModeSleep, Delay: time.Hour})
	Activate(r)
	defer Deactivate()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := FireCtx(ctx, "sim.step")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleep ignored the deadline: %v", elapsed)
	}
}

// TestSleepModeCompletes checks a short sleep returns nil after the delay.
func TestSleepModeCompletes(t *testing.T) {
	r := New(1)
	r.Arm(Spec{Point: "p", Mode: ModeSleep, Delay: 5 * time.Millisecond})
	Activate(r)
	defer Deactivate()
	if err := Fire("p"); err != nil {
		t.Fatalf("completed sleep returned %v", err)
	}
}

// TestProbabilityDeterminism proves two registries with the same seed
// produce the same trigger sequence, and the trigger rate tracks P.
func TestProbabilityDeterminism(t *testing.T) {
	sequence := func(seed uint64) []bool {
		r := New(seed)
		r.Arm(Spec{Point: "p", Mode: ModeError, P: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.fire(context.Background(), "p") != nil
		}
		return out
	}
	a, b := sequence(7), sequence(7)
	triggers := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
		if a[i] {
			triggers++
		}
	}
	if triggers < 60 || triggers > 140 {
		t.Fatalf("P=0.5 triggered %d/200 times", triggers)
	}
	if c := sequence(8); equalBools(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDisarm checks Disarm removes all specs at a point.
func TestDisarm(t *testing.T) {
	r := New(1)
	r.Arm(Spec{Point: "p", Mode: ModeError})
	r.Disarm("p")
	Activate(r)
	defer Deactivate()
	if err := Fire("p"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}

// TestEveryRegisteredPointAndMode is the table-driven sweep the coverage
// ratchet leans on: every point name wired through the repository (Points)
// must arm and trigger in every mode. A point added to production code
// without being listed in Points — or a mode that stops triggering — fails
// here.
func TestEveryRegisteredPointAndMode(t *testing.T) {
	points := Points()
	if len(points) < 5 {
		t.Fatalf("Points() lists %d points, want at least the 5 documented ones", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if p.Name == "" || p.Doc == "" {
			t.Fatalf("point %+v missing name or doc", p)
		}
		if seen[p.Name] {
			t.Fatalf("point %q listed twice", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"journal.append", "journal.dirsync"} {
		if !seen[want] {
			t.Fatalf("durability point %q not registered", want)
		}
	}

	modes := []struct {
		name string
		mode Mode
		spec func(point string) Spec
		run  func(t *testing.T, point string)
	}{
		{"error", ModeError, func(p string) Spec { return Spec{Point: p, Mode: ModeError, Count: 1} },
			func(t *testing.T, p string) {
				if err := Fire(p); !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), p) {
					t.Fatalf("%s error mode: %v", p, err)
				}
			}},
		{"panic", ModePanic, func(p string) Spec { return Spec{Point: p, Mode: ModePanic, Count: 1} },
			func(t *testing.T, p string) {
				defer func() {
					v := recover()
					if v == nil {
						t.Fatalf("%s panic mode did not panic", p)
					}
					if !strings.Contains(v.(string), p) {
						t.Fatalf("%s panic value %q does not name the point", p, v)
					}
				}()
				_ = Fire(p)
			}},
		{"sleep", ModeSleep, func(p string) Spec { return Spec{Point: p, Mode: ModeSleep, Count: 1, Delay: time.Millisecond} },
			func(t *testing.T, p string) {
				if err := Fire(p); err != nil {
					t.Fatalf("%s completed sleep returned %v", p, err)
				}
			}},
	}
	for _, pt := range points {
		for _, m := range modes {
			t.Run(pt.Name+"/"+m.name, func(t *testing.T) {
				r := New(11)
				r.Arm(m.spec(pt.Name))
				Activate(r)
				defer Deactivate()
				m.run(t, pt.Name)
				if got := r.Fired(pt.Name); got != 1 {
					t.Fatalf("Fired(%s) = %d, want 1", pt.Name, got)
				}
				// Count exhausted: the next call is clean.
				if m.mode != ModePanic {
					if err := Fire(pt.Name); err != nil {
						t.Fatalf("%s after Count exhausted: %v", pt.Name, err)
					}
				}
			})
		}
	}
}

// TestInjectionScheduleDeterminism proves the property seeded fault suites
// rest on: with probabilistic specs over several points, the same seed and
// the same call sequence yield the same injection schedule.
func TestInjectionScheduleDeterminism(t *testing.T) {
	calls := []string{"sim.step", "simcache.get", "sim.step", "journal.append"}
	schedule := func(seed uint64) []bool {
		r := New(seed)
		r.Arm(Spec{Point: "sim.step", Mode: ModeError, P: 0.3})
		r.Arm(Spec{Point: "simcache.get", Mode: ModeError, P: 0.3})
		r.Arm(Spec{Point: "journal.append", Mode: ModeError, P: 0.3})
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, r.fire(context.Background(), calls[i%len(calls)]) != nil)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	if !equalBools(a, b) {
		t.Fatal("same seed produced different injection schedules")
	}
	if c := schedule(43); equalBools(a, c) {
		t.Fatal("different seeds produced identical injection schedules")
	}
}

// TestConcurrentFire exercises the registry under concurrency (for -race).
func TestConcurrentFire(t *testing.T) {
	r := New(3)
	r.Arm(Spec{Point: "p", Mode: ModeError, P: 0.5})
	Activate(r)
	defer Deactivate()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = Fire("p")
			}
		}()
	}
	wg.Wait()
	if r.Fired("p") == 0 {
		t.Fatal("nothing fired")
	}
}
