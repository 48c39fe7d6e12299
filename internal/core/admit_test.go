package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"powerchief/internal/cmp"
)

// Property tests for the two budget-admission primitives. Every case runs
// from its own seed, and every failure message starts with it, so a failing
// case replays alone by pinning propertySeeds to that one value.

// propertySeeds returns the case seeds: 1k under -short, 10k otherwise.
func propertySeeds() []int64 {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// shedCase is one random ShedLevels scenario: instances on a shared power
// model and a draw target that may be out of reach even at level 0.
type shedCase struct {
	t      *testing.T
	seed   int64
	model  cmp.PowerModel
	levels []cmp.Level
	target cmp.Watts
	steps  int
}

func (c *shedCase) draw() cmp.Watts {
	var sum cmp.Watts
	for _, l := range c.levels {
		sum += c.model.Power(l)
	}
	return sum
}

func (c *shedCase) fits() bool { return c.draw() <= c.target+1e-9 }

// shedInst is one instance of a shedCase; its SetLevel checks each step.
type shedInst struct {
	c *shedCase
	i int
}

func (in shedInst) Level() cmp.Level { return in.c.levels[in.i] }

func (in shedInst) SetLevel(l cmp.Level) error {
	c := in.c
	if c.fits() {
		c.t.Fatalf("seed %d: step %d taken although the draw already fits", c.seed, c.steps)
	}
	if cur := c.levels[in.i]; l != cur-1 {
		c.t.Fatalf("seed %d: instance %d moved %d→%d, want one step down", c.seed, in.i, cur, l)
	}
	for j, other := range c.levels {
		if other > c.levels[in.i] || (other == c.levels[in.i] && j < in.i) {
			c.t.Fatalf("seed %d: lowered instance %d at level %d, but instance %d at level %d comes first",
				c.seed, in.i, c.levels[in.i], j, other)
		}
	}
	c.levels[in.i] = l
	c.steps++
	return nil
}

func TestShedLevelsProperty(t *testing.T) {
	model := cmp.DefaultModel()
	for _, seed := range propertySeeds() {
		rng := rand.New(rand.NewSource(seed))
		c := &shedCase{t: t, seed: seed, model: model, levels: make([]cmp.Level, rng.Intn(8))}
		for i := range c.levels {
			c.levels[i] = cmp.Level(rng.Intn(cmp.NumLevels))
		}
		// Targets range from below the all-at-level-0 draw (unreachable) to
		// above the current draw (nothing to shed).
		floorDraw := cmp.Watts(len(c.levels)) * model.Power(0)
		c.target = floorDraw*0.8 + cmp.Watts(rng.Float64())*(c.draw()*1.2-floorDraw*0.8)
		before := append([]cmp.Level(nil), c.levels...)
		insts := make([]shedInst, len(c.levels))
		for i := range insts {
			insts[i] = shedInst{c, i}
		}

		err := ShedLevels(insts, c.fits)
		for i, l := range c.levels {
			if l > before[i] {
				t.Fatalf("seed %d: instance %d raised %d→%d", seed, i, before[i], l)
			}
		}
		if err == nil {
			if !c.fits() {
				t.Fatalf("seed %d: success with draw %.3fW over target %.3fW", seed, float64(c.draw()), float64(c.target))
			}
			continue
		}
		if !errors.Is(err, cmp.ErrBudgetExceeded) {
			t.Fatalf("seed %d: error %v does not wrap ErrBudgetExceeded", seed, err)
		}
		for i, l := range c.levels {
			if l != 0 {
				t.Fatalf("seed %d: error %v with instance %d still at level %d", seed, err, i, l)
			}
		}
	}
}

func TestShedLevelsStopsOnSetLevelError(t *testing.T) {
	boom := errors.New("actuator down")
	a := &failLeveler{level: 3, err: boom}
	b := &failLeveler{level: 2}
	calls := 0
	err := ShedLevels([]*failLeveler{b, a}, func() bool { calls++; return false })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the SetLevel error", err)
	}
	if a.level != 3 || b.level != 2 || calls != 1 {
		t.Fatalf("levels a=%d b=%d after %d fits calls, want untouched after one", a.level, b.level, calls)
	}
}

type failLeveler struct {
	level cmp.Level
	err   error
}

func (f *failLeveler) Level() cmp.Level { return f.level }

func (f *failLeveler) SetLevel(l cmp.Level) error {
	if f.err != nil {
		return f.err
	}
	f.level = l
	return nil
}

// ledgerDonor is a child BudgetDomain that checks the ledger around every
// grant: Σ grants ≤ budget before and after, never raised, never cut below
// the floor. A failing donor's actuator rejects every grant.
type ledgerDonor struct {
	*BudgetDomain
	t       *testing.T
	seed    int64
	root    *BudgetDomain
	floor   cmp.Watts
	initial cmp.Watts
	fails   bool
	calls   int
	log     *[]int
	index   int
}

func (d *ledgerDonor) SetBudget(w cmp.Watts) error {
	if err := d.root.CheckInvariant(); err != nil {
		d.t.Fatalf("seed %d: before grant to %s: %v", d.seed, d.Name(), err)
	}
	if w > d.Budget()+1e-9 {
		d.t.Fatalf("seed %d: %s raised %.3f→%.3fW", d.seed, d.Name(), float64(d.Budget()), float64(w))
	}
	if w < d.floor-1e-9 {
		d.t.Fatalf("seed %d: %s cut to %.3fW below the %.3fW floor", d.seed, d.Name(), float64(w), float64(d.floor))
	}
	d.calls++
	*d.log = append(*d.log, d.index)
	err := d.BudgetDomain.SetBudget(w)
	if err := d.root.CheckInvariant(); err != nil {
		d.t.Fatalf("seed %d: after grant to %s: %v", d.seed, d.Name(), err)
	}
	return err
}

func TestReclaimFloorProperty(t *testing.T) {
	for _, seed := range propertySeeds() {
		rng := rand.New(rand.NewSource(seed))
		budget := cmp.Watts(10 + rng.Float64()*90)
		root := NewRootDomain("root", budget)
		n := rng.Intn(20)
		floor := cmp.Watts(rng.Float64()) * budget / cmp.Watts(n+1)
		var log []int
		donors := make([]*ledgerDonor, n)
		left := budget
		for i := range donors {
			// Grants anywhere from zero to the rest of the budget, so some
			// donors start below the floor and some cases keep headroom.
			grant := cmp.Watts(rng.Float64()) * left
			if rng.Intn(4) == 0 && i > 0 {
				grant = donors[rng.Intn(i)].initial // ties
				if grant > left {
					grant = left
				}
			}
			left -= grant
			d := &ledgerDonor{t: t, seed: seed, root: root, floor: floor, initial: grant,
				fails: rng.Intn(5) == 0, log: &log, index: i}
			var actuate func(cmp.Watts) error
			if d.fails {
				actuate = func(cmp.Watts) error { return errors.New("grant rejected") }
			}
			dom, err := root.NewChild(fmt.Sprintf("d%d", i), grant, actuate)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			d.BudgetDomain = dom
			donors[i] = d
		}
		need := cmp.Watts(rng.Float64()) * budget
		startHeadroom := root.Headroom()

		err := ReclaimFloor(donors, root.Headroom, need, floor)

		end := root.Headroom()
		if short := need - end; (err != nil) != (short > 1e-9) {
			t.Fatalf("seed %d: err = %v with headroom %.6fW for need %.6fW", seed, err, float64(end), float64(need))
		}
		if end > startHeadroom+1e-9 && end > need+1e-9 {
			t.Fatalf("seed %d: reclaimed past the need: headroom %.6f→%.6fW for %.6fW",
				seed, float64(startHeadroom), float64(end), float64(need))
		}
		// Richest first, ties in listed order, each donor at most once.
		for k := 1; k < len(log); k++ {
			a, b := donors[log[k-1]], donors[log[k]]
			if a.initial < b.initial || (a.initial == b.initial && a.index > b.index) {
				t.Fatalf("seed %d: cut %s (%.3fW) before %s (%.3fW)", seed, a.Name(), float64(a.initial), b.Name(), float64(b.initial))
			}
		}
		for _, d := range donors {
			switch {
			case d.calls > 1:
				t.Fatalf("seed %d: %s granted %d times", seed, d.Name(), d.calls)
			case d.fails && d.Budget() != d.initial:
				t.Fatalf("seed %d: failed donor %s moved %.3f→%.3fW", seed, d.Name(), float64(d.initial), float64(d.Budget()))
			case err != nil && !d.fails && d.Budget() > floor+1e-9:
				t.Fatalf("seed %d: gave up with %s still %.3fW over the floor", seed, d.Name(), float64(d.Budget()-floor))
			}
		}
	}
}
