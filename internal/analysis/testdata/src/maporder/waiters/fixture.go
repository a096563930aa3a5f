// Package waiters is a maporder fixture for every way simulator work gets
// ordered: scheduling an event assigns its sequence number in call order,
// and registering a signal waiter fixes the order its callback is
// scheduled in when the signal fires. Calling either per map entry lets
// Go's randomized iteration order decide which same-instant callback runs
// first.
package waiters

import "sort"

type handler struct{}

func (handler) Handle(int) {}

type simulator struct{}

func (s *simulator) Schedule(delay float64, fn func())                 {}
func (s *simulator) At(t float64, fn func())                           {}
func (s *simulator) ScheduleHandler(delay float64, h handler, arg int) {}
func (s *simulator) AtHandler(t float64, h handler, arg int)           {}

type signal struct{}

func (g *signal) OnFire(fn func())                 {}
func (g *signal) OnFireHandler(h handler, arg int) {}

// wakeAll schedules one event per map entry through every entry point.
func wakeAll(s *simulator, waiting map[int]float64) {
	for id, t := range waiting {
		s.Schedule(t, func() {})            // want "Schedule called while ranging over a map"
		s.At(t, func() {})                  // want "At called while ranging over a map"
		s.ScheduleHandler(t, handler{}, id) // want "ScheduleHandler called while ranging over a map"
		s.AtHandler(t, handler{}, id)       // want "AtHandler called while ranging over a map"
	}
}

// watchAll registers one waiter per map entry: when the signal fires the
// callbacks are scheduled in registration order, which here is map order.
func watchAll(done *signal, watchers map[int]handler) {
	for id, h := range watchers {
		done.OnFire(func() {})    // want "OnFire called while ranging over a map"
		done.OnFireHandler(h, id) // want "OnFireHandler called while ranging over a map"
	}
}

// watchSorted is the idiom the analyzer must NOT flag: register in
// sorted key order.
func watchSorted(done *signal, watchers map[int]handler) {
	ids := make([]int, 0, len(watchers))
	for id := range watchers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		done.OnFireHandler(watchers[id], id)
	}
}
