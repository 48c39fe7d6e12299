package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled occurrence in virtual time. It is returned by
// Engine.Schedule and can be cancelled or rescheduled until it fires.
type Event struct {
	at       time.Duration
	seq      uint64
	index    int // heap index, -1 when not queued
	fn       func()
	canceled bool
}

// At reports the virtual time the event is scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// Canceled reports whether the event was cancelled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e.index >= 0 && !e.canceled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    time.Duration
	seq    uint64
	queue  eventQueue
	fired  uint64
	halted bool
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events queued (including cancelled events not
// yet discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// Next reports the virtual time of the next pending event; ok is false when
// none is queued. A wall-clock pacer sleeps until this instant.
func (e *Engine) Next() (at time.Duration, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Schedule queues fn to run after delay of virtual time. A negative delay is
// treated as zero (fire as soon as possible, after already-queued events at
// the current instant). The returned Event may be cancelled or rescheduled.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := &Event{at: e.now + delay, seq: e.seq, fn: fn, index: -1}
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleAt queues fn at an absolute virtual time. Times in the past are
// clamped to the current instant.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) *Event {
	return e.Schedule(at-e.now, fn)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op. Returns true if the event was pending and is now
// cancelled.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	return true
}

// Reschedule moves a pending event to fire after delay from now. If the event
// already fired or was cancelled, a fresh event is scheduled with the same
// function. It returns the event that will fire.
func (e *Engine) Reschedule(ev *Event, delay time.Duration) *Event {
	if ev == nil {
		panic("sim: Reschedule called with nil event")
	}
	if delay < 0 {
		delay = 0
	}
	if ev.index >= 0 && !ev.canceled {
		ev.at = e.now + delay
		e.seq++
		ev.seq = e.seq
		heap.Fix(&e.queue, ev.index)
		return ev
	}
	return e.Schedule(delay, ev.fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.canceled {
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", ev.at, e.now))
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events until the virtual clock would pass deadline or no
// events remain. The clock is left at min(deadline, time of last event). The
// engine can be resumed with further RunUntil calls.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		ev := e.queue[0]
		if ev.canceled {
			heap.Pop(&e.queue)
			continue
		}
		if ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events to exhaustion.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Every schedules fn to run periodically with the given interval, starting
// after one interval. The returned stop function cancels future firings.
// The interval must be positive.
func (e *Engine) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	stopped := false
	var tick func()
	var ev *Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = e.Schedule(interval, tick)
		}
	}
	ev = e.Schedule(interval, tick)
	return func() {
		stopped = true
		e.Cancel(ev)
	}
}
