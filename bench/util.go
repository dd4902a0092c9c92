package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/kernels"
)

// profiles resolves Table III abbreviations.
func profiles(abbrs ...string) ([]kernels.Profile, error) {
	ps := make([]kernels.Profile, len(abbrs))
	for i, a := range abbrs {
		p, ok := kernels.ByAbbr(a)
		if !ok {
			return nil, fmt.Errorf("kernel %s not in catalogue", a)
		}
		ps[i] = p
	}
	return ps, nil
}

// digest is the SHA-256 of v's JSON encoding — the form in which simulated
// outputs (sim.Result) are compared across runs, processes and commits.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// rng is splitmix64, the repo-standard deterministic generator.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// timeSetups runs a workload's set-up n times and returns the median wall
// time in seconds (the repetitions are its segments); the products of the
// last repetition are the ones used. discard, when non-nil, releases a
// repetition's products untimed before the next one starts.
func timeSetups(n int, setup, discard func() error) (stat, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			if err := discard(); err != nil {
				return stat{}, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return stat{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return newStat(secs, n), nil
}

// forEach runs fn(0..n-1) on at most GOMAXPROCS goroutines and returns the
// errors joined.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
