package cluster

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives Membership transitions without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestMembership(peers ...string) (*Membership, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := NewMembership("self", peers, 30*time.Millisecond, 100*time.Millisecond)
	m.now = clk.now
	// Re-anchor the initial grace period on the fake clock.
	for _, rec := range m.peers {
		rec.lastSeen = clk.t
	}
	return m, clk
}

func TestMembershipTransitions(t *testing.T) {
	m, clk := newTestMembership("p1", "p2")
	var died, revived []string
	m.OnDead(func(p string) { died = append(died, p) })
	m.OnAlive(func(p string) { revived = append(revived, p) })

	if got := m.State("p1"); got != StateAlive {
		t.Fatalf("initial state %v, want alive", got)
	}
	// p1 keeps talking, p2 goes silent.
	clk.advance(50 * time.Millisecond)
	m.Observe("p1", 1, 0, true)
	m.Tick()
	if got := m.State("p1"); got != StateAlive {
		t.Fatalf("p1 %v after heartbeat, want alive", got)
	}
	if got := m.State("p2"); got != StateSuspect {
		t.Fatalf("p2 %v after 50ms silence, want suspect", got)
	}
	if len(died) != 0 {
		t.Fatalf("premature deaths: %v", died)
	}

	clk.advance(60 * time.Millisecond) // p2 silent 110ms total
	m.Tick()
	if got := m.State("p2"); got != StateDead {
		t.Fatalf("p2 %v after 110ms silence, want dead", got)
	}
	if len(died) != 1 || died[0] != "p2" {
		t.Fatalf("OnDead fired %v, want [p2]", died)
	}
	m.Tick() // no re-fire
	if len(died) != 1 {
		t.Fatalf("OnDead re-fired: %v", died)
	}

	// p2 comes back.
	m.Observe("p2", 1, 3, true)
	if got := m.State("p2"); got != StateAlive {
		t.Fatalf("p2 %v after revival heartbeat, want alive", got)
	}
	if len(revived) != 1 || revived[0] != "p2" {
		t.Fatalf("OnAlive fired %v, want [p2]", revived)
	}
}

func TestMembershipStaleSeqDropped(t *testing.T) {
	m, _ := newTestMembership("p1")
	m.Observe("p1", 5, 10, true)
	m.Observe("p1", 3, 99, false) // delayed packet: must not apply
	for _, info := range m.Snapshot() {
		if info.QueueLen != 10 || !info.Ready {
			t.Fatalf("stale heartbeat applied: %+v", info)
		}
	}
	m.Observe("p1", 0, 7, true) // seq 0 = restarted peer, always applies
	for _, info := range m.Snapshot() {
		if info.QueueLen != 7 {
			t.Fatalf("restart heartbeat dropped: %+v", info)
		}
	}
}

func TestMembershipUnknownPeer(t *testing.T) {
	m, _ := newTestMembership("p1")
	m.Observe("stranger", 1, 0, true) // must not panic or add a peer
	if got := m.State("stranger"); got != StateDead {
		t.Fatalf("unknown peer state %v, want dead", got)
	}
	if got := m.State("self"); got != StateAlive {
		t.Fatalf("self state %v, want alive", got)
	}
}

func TestMembershipQuorum(t *testing.T) {
	m, clk := newTestMembership("p1", "p2") // cluster of 3
	if !m.QuorumOK() {
		t.Fatal("full cluster lacks quorum")
	}
	clk.advance(150 * time.Millisecond)
	m.Observe("p1", 1, 0, true) // p1 alive, p2 dead
	m.Tick()
	if !m.QuorumOK() {
		t.Fatal("2 of 3 lacks quorum")
	}
	clk.advance(150 * time.Millisecond) // now p1 dead too
	m.Tick()
	if m.QuorumOK() {
		t.Fatal("1 of 3 claims quorum")
	}
}

func TestMembershipBusiest(t *testing.T) {
	m, clk := newTestMembership("p1", "p2", "p3")
	m.Observe("p1", 1, 2, true)
	m.Observe("p2", 1, 9, true)
	m.Observe("p3", 1, 9, true)
	peer, depth, ok := m.Busiest(4)
	if !ok || depth != 9 || peer != "p2" { // ties break to the lower ID
		t.Fatalf("Busiest = %s/%d/%v, want p2/9/true", peer, depth, ok)
	}
	if _, _, ok := m.Busiest(9); ok {
		t.Fatal("Busiest found a peer at threshold 9")
	}
	// A dead peer is never a steal victim, however deep its queue.
	clk.advance(150 * time.Millisecond)
	m.Observe("p1", 2, 2, true)
	m.Observe("p3", 2, 3, true)
	m.Tick() // p2 dead
	if peer, _, ok := m.Busiest(0); !ok || peer == "p2" {
		t.Fatalf("Busiest = %s/%v, want a live peer", peer, ok)
	}
}

func TestPeerStateString(t *testing.T) {
	for state, want := range map[PeerState]string{
		StateAlive:    "alive",
		StateSuspect:  "suspect",
		StateDead:     "dead",
		PeerState(99): "dead",
	} {
		if got := state.String(); got != want {
			t.Errorf("PeerState(%d).String() = %q, want %q", int(state), got, want)
		}
	}
}
