package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty node ID accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate node ID accepted")
	}
}

// TestRingDeterministic proves routing is a pure function of the node set —
// independent of construction order, so every cluster member computes the
// same owner for every key.
func TestRingDeterministic(t *testing.T) {
	r1, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: owner differs by construction order", key)
		}
		if !reflect.DeepEqual(r1.Preference(key), r2.Preference(key)) {
			t.Fatalf("key %q: preference differs by construction order", key)
		}
	}
}

// TestRingPreference checks the preference list is a permutation of all
// nodes starting at the owner.
func TestRingPreference(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		prefs := r.Preference(key)
		if len(prefs) != len(nodes) {
			t.Fatalf("key %q: preference %v does not cover all nodes", key, prefs)
		}
		if prefs[0] != r.Owner(key) {
			t.Fatalf("key %q: preference head %s != owner %s", key, prefs[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, id := range prefs {
			if seen[id] {
				t.Fatalf("key %q: duplicate %s in preference %v", key, id, prefs)
			}
			seen[id] = true
		}
	}
}

// TestRingBalance checks vnodes spread keys roughly evenly: no node of three
// should own more than half or under a tenth of 10k keys.
func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const total = 10_000
	for i := 0; i < total; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for id, c := range counts {
		if c > total/2 || c < total/10 {
			t.Fatalf("node %s owns %d of %d keys; distribution %v", id, c, total, counts)
		}
	}
}

// TestRingStability checks removing a node only moves that node's keys:
// every key owned by a survivor keeps its owner.
func TestRingStability(t *testing.T) {
	full, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"n1", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if o := full.Owner(key); o != "n2" && reduced.Owner(key) != o {
			t.Fatalf("key %q moved from %s to %s though its owner survived", key, o, reduced.Owner(key))
		}
	}
}

func TestOwnerOfJobID(t *testing.T) {
	for id, want := range map[string]string{
		"n2-job-7":       "n2",
		"node-a-job-12":  "node-a",
		"n1-job-3-job-4": "n1",
		"job-7":          "", // single-node ID: no prefix
		"-job-7":         "", // empty prefix routes nowhere
		"":               "",
		"n2":             "",
	} {
		if got := ownerOfJobID(id); got != want {
			t.Errorf("ownerOfJobID(%q) = %q, want %q", id, got, want)
		}
	}
}
