package smcore

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seedObserver watches the SM of a lockstep run from the inside and records
// which states of the issue path it passed through.
type seedObserver struct {
	seen map[string]bool
	// How many consecutive cycles a warp's memo has matched an unmoved
	// hazardEpoch, per memo kind. Past the warp count, every runnable warp
	// has been popped at least once since, so the memoised warp was retried
	// and turned away by the memo.
	standing  map[string]int
	lastEpoch uint64
}

func newSeedObserver() *seedObserver {
	return &seedObserver{seen: map[string]bool{}, standing: map[string]int{}}
}

func (o *seedObserver) observe(ls *lockstep) {
	sm := ls.sm
	lineWakes := make([]int, len(sm.warps))
	for s := range sm.wheel {
		slot := &sm.wheel[s]
		kinds, total := [2]int{}, int(slot.n)
		for _, e := range slot.e[:slot.n] {
			kinds[e&1]++
			if e&1 == wakeLine {
				lineWakes[e>>1]++
			}
		}
		for _, sp := range sm.spill {
			if int(sp.slot) == s {
				kinds[sp.e&1]++
				total++
			}
		}
		if kinds[0] > 0 && kinds[1] > 0 {
			o.seen["slot-mixes-compute-and-line-wakes"] = true
		}
		if total > wheelInline && total > sm.warpsPerBlock {
			o.seen["spill-behind-other-wakes"] = true
		}
	}

	memos := map[string]bool{}
	for wi := range sm.warps {
		w, c := &sm.warps[wi], &sm.cold[wi]
		if w.state == warpFree {
			continue
		}
		if w.state == warpBarrierWait && c.stream.Remaining() > 0 {
			o.seen["barrier-cuts-run"] = true
		}
		if w.computeLeft > 0 && c.stream.Remaining() == 0 {
			o.seen["run-reaches-stream-end"] = true
		}
		if w.memoEpoch != sm.hazardEpoch {
			continue
		}
		kind := "outbox-store"
		switch {
		case w.memoL1 && sm.l1.MSHRSlot(sm.amap.LineAddr(c.op.Lines[w.pendingIdx])) >= 0:
			kind = "merge-cap"
		case w.memoL1 && sm.outbox.Len() >= outboxLimit:
			kind = "l1-verdict-under-full-outbox"
		case w.memoL1:
			kind = "mshr-full"
		case !c.op.Write:
			kind = "outbox-load"
		}
		memos[kind] = true
		if w.pendingIdx > 0 && lineWakes[wi] > 0 {
			memos["mid-op-with-line-wakes"] = true
		}
	}
	for kind := range memos {
		if sm.hazardEpoch != o.lastEpoch {
			o.standing[kind] = 0
		}
		o.standing[kind]++
		if o.standing[kind] > len(sm.warps) {
			o.seen["memo-stands:"+kind] = true
			if ls.assigns > 1 {
				o.seen["memo-stands-after-reassign"] = true
			}
		}
	}
	for kind := range o.standing {
		if !memos[kind] {
			delete(o.standing, kind)
		}
	}
	o.lastEpoch = sm.hazardEpoch
	if ls.assigns > 1 && sm.resident > 0 {
		o.seen["reassigned"] = true
	}
}

// TestFuzzSMCycleSeedsReachTheirStates replays every named FuzzSMCycle seed
// through the lockstep driver and requires it to reach the state it is named
// for: a seed that drifts (the byte encoding changes, a default moves) would
// otherwise keep passing while covering nothing.
func TestFuzzSMCycleSeedsReachTheirStates(t *testing.T) {
	want := map[string][]string{
		"mshr-full-then-fill":         {"memo-stands:mshr-full"},
		"outbox-full-then-pop":        {"memo-stands:outbox-store"},
		"outbox-full-load":            {"memo-stands:outbox-load"},
		"merge-cap":                   {"memo-stands:merge-cap"},
		"l1-verdict-then-outbox-full": {"memo-stands:l1-verdict-under-full-outbox"},
		"blocked-mid-op":              {"memo-stands:mid-op-with-line-wakes"},
		"barrier-spill":               {"spill-behind-other-wakes"},
		"computelat-equals-hitlat":    {"slot-mixes-compute-and-line-wakes"},
		"stream-ends-in-run":          {"run-reaches-stream-end"},
		"barrier-after-run":           {"barrier-cuts-run"},
		"reassign-with-memo":          {"reassigned", "memo-stands-after-reassign"},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSMCycle")
	for name, states := range want {
		t.Run(name, func(t *testing.T) {
			data := readFuzzSeed(t, filepath.Join(dir, name))
			obs := newSeedObserver()
			ls := newLockstep(t, data[:fuzzHeader])
			ls.observe = obs.observe
			ls.run(data[fuzzHeader:])
			for _, s := range states {
				if !obs.seen[s] {
					t.Errorf("seed never reached %q (reached %v)", s, obs.seen)
				}
			}
		})
	}
}

// readFuzzSeed parses a one-argument []byte corpus file.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
