package server

import (
	"fmt"
	"sync"
)

// Admission control sheds load by estimated model cost, not arrival order:
// every create carries a cost in session units (modelspec.Spec.Cost and
// modelspec.TrunkSpec.Cost, read from the spec alone), the server holds a
// fixed cost budget, and as the budget fills the maximum admissible cost
// shrinks, so a burst of expensive superpositions cannot starve the cheap
// streams that make up the bulk of a large fleet. Rejections are 429 with
// a Retry-After hint; draining stays 503.

// admission reject reasons (the reason label on
// vbrsim_server_admission_rejects_total).
const (
	rejectCap      = "cap"      // session-count limit
	rejectBudget   = "budget"   // cost exceeds remaining budget
	rejectPressure = "pressure" // cost too high for the pressure region
	rejectDrain    = "drain"    // server is draining (503, not 429)
)

// pressureKnee is the budget fill fraction beyond which the admissible
// cost tightens from "whatever fits" to half the remaining budget: the
// shed-order rule that keeps cheap sessions landing while expensive ones
// wait out the pressure.
const pressureKnee = 0.75

// admitError is an admission rejection: the reason keys the metrics label
// and the RetryAfter hint lands on the 429.
type admitError struct {
	reason     string
	retryAfter int // seconds
	err        error
}

func (e *admitError) Error() string { return e.err.Error() }

// admission is the cost-budget gate in front of the session registry.
// Reservations are taken before the (expensive, cancellable) stream open
// and released when the open fails or the session is removed, so the
// budget tracks open-or-opening sessions exactly.
type admission struct {
	mu          sync.Mutex
	used        float64
	sessions    int
	budget      float64
	maxSessions int
	draining    bool
}

func newAdmission(budget float64, maxSessions int) *admission {
	return &admission{budget: budget, maxSessions: maxSessions}
}

// reserve admits cost units or explains the rejection. The rules, in
// order: drain rejects everything; the session-count cap is absolute; the
// cost must fit the remaining budget; and above the pressure knee only
// requests at most half the remaining budget get in — so under pressure
// admissibility is monotone in cost: any request cheaper than an admitted
// one would also have been admitted.
func (a *admission) reserve(cost float64) *admitError {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return &admitError{reason: rejectDrain, err: errDraining}
	}
	if a.sessions >= a.maxSessions {
		return &admitError{reason: rejectCap, retryAfter: 2, err: errSessionCap}
	}
	remaining := a.budget - a.used
	if cost > remaining {
		return &admitError{
			reason: rejectBudget, retryAfter: 2,
			err: fmt.Errorf("session cost %.1f exceeds remaining budget %.1f of %.1f", cost, remaining, a.budget),
		}
	}
	if a.used > pressureKnee*a.budget && cost > remaining/2 {
		return &admitError{
			reason: rejectPressure, retryAfter: 1,
			err: fmt.Errorf("session cost %.1f over the pressure limit %.1f (budget %.0f%% full); retry or submit cheaper models", cost, remaining/2, 100*a.used/a.budget),
		}
	}
	a.used += cost
	a.sessions++
	return nil
}

// release returns a reservation (failed open, delete, eviction).
func (a *admission) release(cost float64) {
	a.mu.Lock()
	a.used -= cost
	a.sessions--
	if a.used < 0 || a.sessions < 0 {
		a.mu.Unlock()
		panic("server: admission accounting went negative")
	}
	a.mu.Unlock()
}

// beginDrain flips every future reserve to a drain rejection.
func (a *admission) beginDrain() {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
}

// isDraining reports the drain flag (healthz).
func (a *admission) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// usedCost returns the reserved cost units (the admission gauge).
func (a *admission) usedCost() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}
