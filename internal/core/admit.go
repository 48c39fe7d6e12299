package core

import (
	"fmt"
	"sort"

	"powerchief/internal/cmp"
)

// The two budget-admission moves the scale-out layers share, extending
// PowerChief's "boost only within recycled power" rule (§6.1, Algorithm 2)
// across levels. Neither ever raises anything, so neither can push Σ grants
// over a budget that held before the call.

// Leveler is the DVFS surface ShedLevels steps down: Instance, the DES
// stage.Instance, or a caller's lock-held adapter.
type Leveler interface {
	Level() cmp.Level
	SetLevel(cmp.Level) error
}

// ShedLevels lowers the highest-level instance by one DVFS step at a time
// until fits() holds; ties go to the instance listed first. It sheds what
// it can before failing: when every instance is at level 0 and fits() is
// still false it returns an error wrapping cmp.ErrBudgetExceeded, and a
// SetLevel error stops the shed and is returned as is.
func ShedLevels[T Leveler](insts []T, fits func() bool) error {
	for !fits() {
		best := -1
		var top cmp.Level
		for i, in := range insts {
			if l := in.Level(); best < 0 || l > top {
				best, top = i, l
			}
		}
		if best < 0 || top == 0 {
			return fmt.Errorf("core: draw does not fit with all %d instances at level 0: %w",
				len(insts), cmp.ErrBudgetExceeded)
		}
		if err := insts[best].SetLevel(top - 1); err != nil {
			return err
		}
	}
	return nil
}

// ReclaimFloor makes room for a re-admission that needs `need` watts of
// headroom. It cuts the richest donor toward floor — never below it — and
// moves on to the next richest (ties in listed order) until headroom()
// covers need. A donor whose SetBudget fails is skipped. The floor bounds
// both how deep a survivor can be cut and what a returning member is owed,
// so members whose floors fit the budget can always be taken back. It
// returns an error when headroom is still short after every donor.
func ReclaimFloor[N NodeControl](donors []N, headroom func() cmp.Watts, need, floor cmp.Watts) error {
	const eps = 1e-9
	type donor struct {
		n      N
		budget cmp.Watts
	}
	order := make([]donor, len(donors))
	for i, d := range donors {
		order[i] = donor{d, d.Budget()}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].budget > order[j].budget })
	for _, d := range order {
		short := need - headroom()
		if short <= eps {
			return nil
		}
		b := d.n.Budget()
		if b <= floor+eps {
			continue
		}
		target := b - short
		if target < floor {
			target = floor
		}
		_ = d.n.SetBudget(target) // a failed grant leaves the donor as it was
	}
	if hr := headroom(); need-hr > eps {
		return fmt.Errorf("core: headroom %.2fW cannot cover the %.2fW re-admission", float64(hr), float64(need))
	}
	return nil
}
