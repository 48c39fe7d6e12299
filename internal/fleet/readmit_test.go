package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/fault"
)

// Re-admission when a donor's grant fails: the floor reclaim
// (core.ReclaimFloor) skips the failed donor and cuts the next richest, and
// when no donor can give, the returning node waits in Recovering for a later
// epoch. Σ granted ≤ budget is checked before every grant lands, not just
// between epochs.

var errGrantRejected = errors.New("fleet test: grant rejected")

// grantEvent is one grant delivery as a node saw it.
type grantEvent struct {
	node  string
	watts cmp.Watts
	ok    bool
}

// flakyNode is a capNode whose next failNext grants are rejected. Every
// delivery is logged, and an accepted one is checked against the cluster
// budget with the new grant in place of the node's ledger entry.
type flakyNode struct {
	*capNode
	h        *flakyFleet
	failNext int
}

func (f *flakyNode) Grant(g Grant) error {
	h := f.h
	h.mu.Lock()
	fail := f.failNext > 0
	if fail {
		f.failNext--
	}
	h.log = append(h.log, grantEvent{node: f.name, watts: g.Watts, ok: !fail})
	h.mu.Unlock()
	if fail {
		return errGrantRejected
	}
	if sum := h.coord.Draw() - h.coord.Granted()[f.name] + g.Watts; sum > h.budget+1e-9 {
		h.t.Errorf("grant of %.3fW to %s takes Σ granted to %.3fW, over the %.3fW budget",
			float64(g.Watts), f.name, float64(sum), float64(h.budget))
	}
	return f.capNode.Grant(g)
}

// flakyFleet is a coordinator over four flaky nodes whose metrics rise with
// their index, so later nodes hold bigger grants.
type flakyFleet struct {
	t      *testing.T
	coord  *Coordinator
	nodes  []*flakyNode
	reb    *Rebalance
	budget cmp.Watts

	mu  sync.Mutex
	log []grantEvent
}

func startFlakyFleet(t *testing.T) *flakyFleet {
	t.Helper()
	h := &flakyFleet{t: t, reb: NewRebalance(), budget: 100}
	var transports []Transport
	for i := 0; i < 4; i++ {
		n := &flakyNode{h: h, capNode: &capNode{
			name:           fmt.Sprintf("node-%d", i),
			metric:         time.Duration(i+1) * time.Second,
			selfFenceAfter: 3,
		}}
		h.nodes = append(h.nodes, n)
		transports = append(transports, n)
	}
	coord, err := NewCoordinator(Options{Budget: h.budget, Floor: 10, SuspectAfter: 2}, transports...)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	return h
}

// epoch runs one control epoch, checks Σ granted ≤ budget, and returns the
// grant deliveries it made.
func (h *flakyFleet) epoch() []grantEvent {
	h.t.Helper()
	h.mu.Lock()
	h.log = nil
	h.mu.Unlock()
	if _, err := h.coord.Adjust(h.reb); err != nil && !fault.IsDegraded(err) {
		h.t.Fatalf("Adjust: %v", err)
	}
	if draw := h.coord.Draw(); draw > h.budget+1e-9 {
		h.t.Fatalf("Σ granted %.3fW over the %.3fW budget", float64(draw), float64(h.budget))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.log
}

// quarantineNode0 settles the allocation, then partitions node-0 until it is
// quarantined and its watts redistributed, and returns the survivors
// richest first.
func (h *flakyFleet) quarantineNode0() []string {
	h.t.Helper()
	h.epoch()
	h.epoch()
	h.nodes[0].partition(true)
	h.epoch() // suspect
	h.epoch() // down, reclaimed, redistributed
	if got := h.coord.Healths()["node-0"]; got != fault.Down {
		h.t.Fatalf("node-0 health %v, want down", got)
	}
	if hr := h.coord.Headroom(); hr > 1e-6 {
		h.t.Fatalf("headroom %.3fW after redistribution; the re-admission would need no donor", float64(hr))
	}
	granted := h.coord.Granted()
	survivors := []string{"node-1", "node-2", "node-3"}
	sort.SliceStable(survivors, func(i, j int) bool { return granted[survivors[i]] > granted[survivors[j]] })
	return survivors
}

func TestFleetReadmitSkipsFailedDonor(t *testing.T) {
	h := startFlakyFleet(t)
	survivors := h.quarantineNode0()
	granted := h.coord.Granted()
	richest, next := survivors[0], survivors[1]
	if granted[richest] <= granted[next] || granted[next] < 20 {
		t.Fatalf("grants %v: want a strict richest survivor and a next richest with 10W above the floor", granted)
	}

	for _, n := range h.nodes {
		if n.name == richest {
			n.failNext = 1
		}
	}
	h.nodes[0].partition(false)
	log := h.epoch()

	// The re-admission's grants come first in the epoch: the richest donor
	// rejects its cut, the next richest gives the whole floor, and the
	// returning node gets exactly the floor.
	want := []grantEvent{
		{node: richest, watts: granted[richest] - 10, ok: false},
		{node: next, watts: granted[next] - 10, ok: true},
		{node: "node-0", watts: 10, ok: true},
	}
	if len(log) < len(want) {
		t.Fatalf("grant log %+v, want it to start with %+v", log, want)
	}
	for i, w := range want {
		if g := log[i]; g.node != w.node || !wattsNear(g.watts, w.watts) || g.ok != w.ok {
			t.Fatalf("grant %d = %+v, want %+v (log %+v)", i, g, w, log)
		}
	}
	if got := h.coord.Healths()["node-0"]; got != fault.Healthy {
		t.Fatalf("node-0 health %v after re-admission, want healthy", got)
	}
	if g := h.coord.Granted()["node-0"]; !wattsNear(g, 10) {
		t.Errorf("re-admitted node granted %.3fW, want the 10W floor", float64(g))
	}
	// The failed grant made the donor suspect; its next heartbeat cleared it.
	if got := h.coord.Healths()[richest]; got != fault.Healthy {
		t.Errorf("%s health %v, want healthy after one failed grant and a good heartbeat", richest, got)
	}
}

func TestFleetReadmitWaitsWhenNoDonorCanGive(t *testing.T) {
	h := startFlakyFleet(t)
	h.quarantineNode0()
	_, readmitted, _ := h.coord.Counts()

	for _, n := range h.nodes[1:] {
		n.failNext = 1
	}
	h.nodes[0].partition(false)
	log := h.epoch()
	for _, g := range log {
		if g.node == "node-0" {
			t.Fatalf("node-0 granted %.3fW with no headroom reclaimed (log %+v)", float64(g.watts), log)
		}
	}
	if got := h.coord.Healths()["node-0"]; got != fault.Recovering {
		t.Fatalf("node-0 health %v with every donor failing, want recovering", got)
	}
	if g := h.coord.Granted()["node-0"]; g != 0 {
		t.Fatalf("node-0 holds %.3fW while recovering", float64(g))
	}

	// The donors answer again: the next epoch re-admits at the floor.
	h.epoch()
	if got := h.coord.Healths()["node-0"]; got != fault.Healthy {
		t.Fatalf("node-0 health %v an epoch later, want healthy", got)
	}
	if g := h.coord.Granted()["node-0"]; !wattsNear(g, 10) {
		t.Errorf("re-admitted node granted %.3fW, want the 10W floor", float64(g))
	}
	if _, r, _ := h.coord.Counts(); r != readmitted+1 {
		t.Errorf("readmissions %d → %d, want one more", readmitted, r)
	}
}
