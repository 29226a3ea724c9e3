package main

import (
	"sort"
	"time"

	"repro/lsample"
)

// span is the harness's own record of one traced interval. Program spans
// (lsample.TraceSpan from an attached Tracer, or the "trace" field of an
// explain response) are converted into it and hung under the client span
// the harness opens around every traced call; all spans of a run stay in
// memory and are written to trace-<workload>.json when the run ends.
type span struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	DurMS    float64        `json:"duration_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*span        `json:"children,omitempty"`
}

func (s *span) end() time.Time {
	return s.Start.Add(time.Duration(s.DurMS * float64(time.Millisecond)))
}

// clientSpanName is the root the harness wraps around each traced op.
const clientSpanName = "bench.client"

func clientSpan(start time.Time, dur time.Duration, class string, child *span) *span {
	s := &span{
		Name:  clientSpanName,
		Start: start,
		DurMS: float64(dur) / float64(time.Millisecond),
		Attrs: map[string]any{"class": class},
	}
	if child != nil {
		s.Children = []*span{child}
	}
	return s
}

func spanFromSDK(t *lsample.TraceSpan) *span {
	if t == nil {
		return nil
	}
	s := &span{
		Name:  t.Name,
		Start: t.Start,
		DurMS: float64(t.Duration) / float64(time.Millisecond),
		Attrs: t.Attrs,
	}
	for _, c := range t.Children {
		s.Children = append(s.Children, spanFromSDK(c))
	}
	return s
}

// selfMS is the span's duration minus the part of its interval that its
// children cover. Children may overlap each other (hedged shard RPCs run
// side by side) or stick out of the parent (the learn/design/sample spans
// are laid out after the fact from phase timings), so the covered part is
// the union of the child intervals clipped to the parent.
func (s *span) selfMS() float64 {
	if len(s.Children) == 0 {
		return s.DurMS
	}
	type iv struct{ lo, hi time.Time }
	lo, hi := s.Start, s.end()
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := c.Start, c.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case !v.lo.After(curHi):
			if v.hi.After(curHi) {
				curHi = v.hi
			}
		default:
			covered += curHi.Sub(curLo)
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi.Sub(curLo)
	}
	self := s.DurMS - float64(covered)/float64(time.Millisecond)
	if self < 0 {
		return 0
	}
	return self
}

// spanTotals accumulates, per span name, self time, duration and count.
type spanTotals struct {
	selfMS, durMS float64
	count         int
}

// aggregate walks span trees and sums per name.
func aggregate(roots []*span) map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	var walk func(s *span)
	walk = func(s *span) {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.selfMS += s.selfMS()
		t.durMS += s.DurMS
		t.count++
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// find returns the first span named name in a pre-order walk, or nil.
func (s *span) find(name string) *span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}
