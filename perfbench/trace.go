package main

import "repro/internal/obs"

// span is one completed span of the traced pass.
type span struct {
	start, end float64 // microseconds since trace start
	self       float64 // duration minus the same-track children it covers
	args       map[string]any
}

// spanSet groups the traced pass's spans by name, in completion order.
type spanSet map[string][]span

// analyzeTrace pairs the B/E events of every track (they nest LIFO, as
// obs.ValidateTrace checks) and computes each span's self time.
func analyzeTrace(events []obs.TraceEvent) spanSet {
	type open struct {
		name     string
		start    float64
		children float64
	}
	stacks := map[int][]open{}
	out := spanSet{}
	for _, ev := range events {
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], open{name: ev.Name, start: ev.TS})
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			st = st[:len(st)-1]
			stacks[ev.TID] = st
			dur := ev.TS - top.start
			if len(st) > 0 {
				st[len(st)-1].children += dur
			}
			out[top.name] = append(out[top.name], span{
				start: top.start, end: ev.TS, self: dur - top.children, args: ev.Args,
			})
		}
	}
	return out
}

// selfMS returns the median self time of the named span, in ms.
func (s spanSet) selfMS(name string) float64 {
	xs := make([]float64, 0, len(s[name]))
	for _, sp := range s[name] {
		xs = append(xs, sp.self/1e3)
	}
	return median(xs)
}

// requestSelfMS returns the median self time of serve.request spans for
// one wire op, with the time of the named spans (on any track) that fall
// inside the request subtracted; requests are one at a time, so
// containment is ownership.
func (s spanSet) requestSelfMS(op string, children ...string) float64 {
	var xs []float64
	for _, req := range s["serve.request"] {
		if req.args["op"] != op {
			continue
		}
		self := req.end - req.start
		for _, c := range children {
			for _, ch := range s[c] {
				if ch.start >= req.start && ch.end <= req.end {
					self -= ch.end - ch.start
				}
			}
		}
		xs = append(xs, self/1e3)
	}
	return median(xs)
}
