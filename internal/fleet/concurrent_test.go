package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// seqEngine hides a *SimEngine behind another type, so the fleet calls it
// the way it calls any engine but SimEngine: sequentially, in GPU order.
type seqEngine struct{ *SimEngine }

// simRun is what one replay of a cycle-engine scenario leaves behind.
type simRun struct {
	csv    []byte
	recs   []IntervalRecord
	done   []string // "<job id>=<retired instructions>", in submission order
	epochs []int    // per GPU
	err    error    // the Tick error the replay stopped at
	busy   int      // the lowest-numbered GPU with residents when it stopped
}

// replaySim replays sc on the cycle engine at the given GOMAXPROCS, through
// seqEngine when seq is set. From interval breakAt on (never when negative)
// the engine simulates a GPU one SM smaller than the fleet's, so every busy
// GPU's Interval fails and the replay stops at that Tick's error.
func replaySim(t *testing.T, sc Scenario, procs int, seq bool, breakAt int) simRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng := &SimEngine{Cfg: sc.Config.GPU}
	sc.Config.Engine = eng
	if seq {
		sc.Config.Engine = seqEngine{eng}
	}
	f, err := New(sc.Config)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*job
	var run simRun
	next := 0
	for iv := 0; iv < sc.Intervals && run.err == nil; iv++ {
		for ; next < len(sc.Arrivals) && sc.Arrivals[next].Interval <= iv; next++ {
			js := sc.Arrivals[next].Job
			if err := f.Submit(js); err != nil {
				if !errors.Is(err, ErrJobTooLarge) {
					t.Fatal(err)
				}
				continue
			}
			q := f.byName[js.Tenant].queue
			jobs = append(jobs, q[len(q)-1])
		}
		if iv == breakAt {
			eng.Cfg.NumSMs--
		}
		run.err = f.Tick()
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f.Records()); err != nil {
		t.Fatal(err)
	}
	run.csv, run.recs = buf.Bytes(), f.Records()
	for _, j := range jobs {
		run.done = append(run.done, fmt.Sprintf("%s=%d", j.spec.ID, j.done))
	}
	run.busy = -1
	for _, g := range f.gpus {
		run.epochs = append(run.epochs, g.epoch)
		if run.busy < 0 && len(g.jobs) > 0 {
			run.busy = g.id
		}
	}
	return run
}

// TestSimIntervalsMatchSequential pins that running a tick's cycle-engine
// intervals concurrently changes nothing a run leaves behind: a shortened
// golden scenario gives the same CSV bytes, records, per-job progress and
// GPU epochs at GOMAXPROCS 1 and 4 as through an engine the fleet calls
// sequentially, and a failing tick returns the error of the lowest-numbered
// busy GPU, as the sequential loop does.
func TestSimIntervalsMatchSequential(t *testing.T) {
	sc := GoldenScenario()
	cases := []struct {
		name      string
		intervals int
		breakAt   int
	}{
		{"clean run", 4, -1},
		{"planted failure", 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc.Intervals = c.intervals
			want := replaySim(t, sc, 1, true, c.breakAt)
			if c.breakAt < 0 {
				if want.err != nil {
					t.Fatal(want.err)
				}
				// The fan-out proves something only if ticks had several
				// busy GPUs to run at once.
				maxBusy := 0
				for _, rec := range want.recs {
					busy := 0
					for _, g := range rec.GPUs {
						if g.Residents > 0 {
							busy++
						}
					}
					maxBusy = max(maxBusy, busy)
				}
				if maxBusy < 2 {
					t.Fatalf("at most %d busy GPUs per interval, want a tick with several", maxBusy)
				}
			} else {
				if want.err == nil {
					t.Fatal("the planted failure did not fail the sequential run")
				}
				prefix := fmt.Sprintf("fleet: gpu %d epoch %d:", want.busy, want.epochs[want.busy])
				if !strings.HasPrefix(want.err.Error(), prefix) {
					t.Fatalf("sequential error %q, want the lowest busy GPU's (%q)", want.err, prefix)
				}
				t.Logf("planted failure: %v", want.err)
			}
			for _, procs := range []int{1, 4} {
				got := replaySim(t, sc, procs, false, c.breakAt)
				if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
					t.Errorf("GOMAXPROCS %d: error %v, sequential %v", procs, got.err, want.err)
				}
				if !bytes.Equal(got.csv, want.csv) {
					t.Errorf("GOMAXPROCS %d: CSV bytes differ from the sequential run", procs)
				}
				if !reflect.DeepEqual(got.recs, want.recs) {
					t.Errorf("GOMAXPROCS %d: records differ from the sequential run", procs)
				}
				if !reflect.DeepEqual(got.done, want.done) {
					t.Errorf("GOMAXPROCS %d: job progress %v, sequential %v", procs, got.done, want.done)
				}
				if !reflect.DeepEqual(got.epochs, want.epochs) {
					t.Errorf("GOMAXPROCS %d: GPU epochs %v, sequential %v", procs, got.epochs, want.epochs)
				}
			}
		})
	}
}
