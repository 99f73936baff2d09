package main

import (
	"sort"
	"strings"

	"flymon/internal/tracing"
)

// spanIndex is a span dump with parent→children links.
type spanIndex struct {
	spans    []tracing.Span
	children map[tracing.SpanID][]int
	byTrace  map[tracing.TraceID][]int
}

func indexSpans(spans []tracing.Span) *spanIndex {
	ix := &spanIndex{
		spans:    spans,
		children: make(map[tracing.SpanID][]int),
		byTrace:  make(map[tracing.TraceID][]int),
	}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
		ix.byTrace[s.Trace] = append(ix.byTrace[s.Trace], i)
	}
	return ix
}

// selfNs is a span's duration minus the part of it its children cover.
func (ix *spanIndex) selfNs(i int) int64 {
	s := ix.spans[i]
	start, end := s.StartNs, s.End()
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range ix.children[s.ID] {
		cs := ix.spans[c]
		lo, hi := max(cs.StartNs, start), min(cs.End(), end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, curLo, curHi := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.DurNs - covered
}

// nameStats is one span name's aggregate.
type nameStats struct {
	Count       int     `json:"count"`
	TotalMs     float64 `json:"total_ms"`
	SelfTotalMs float64 `json:"self_total_ms"`
	SelfMeanUs  float64 `json:"self_mean_us"`
	SelfP50Us   float64 `json:"self_p50_us"`
}

// selfTimes aggregates duration and self time per span name.
func (ix *spanIndex) selfTimes() map[string]*nameStats {
	samples := map[string][]float64{}
	out := map[string]*nameStats{}
	for i, s := range ix.spans {
		st := out[s.Name]
		if st == nil {
			st = &nameStats{}
			out[s.Name] = st
		}
		self := ix.selfNs(i)
		st.Count++
		st.TotalMs += float64(s.DurNs) / 1e6
		st.SelfTotalMs += float64(self) / 1e6
		samples[s.Name] = append(samples[s.Name], float64(self)/1e3)
	}
	for name, st := range out {
		st.SelfMeanUs = st.SelfTotalMs * 1e3 / float64(st.Count)
		st.SelfP50Us = median(samples[name])
	}
	return out
}

// selfs returns the self times (µs) of every span with the name.
func (ix *spanIndex) selfs(name string) []float64 {
	var out []float64
	for i, s := range ix.spans {
		if s.Name == name {
			out = append(out, float64(ix.selfNs(i))/1e3)
		}
	}
	return out
}

// lastChildEnd returns, for every root span with the name, the time (µs)
// from the root's start to the end of its last child named child.
func (ix *spanIndex) lastChildEnd(root, child string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name != root || s.Parent != 0 {
			continue
		}
		last := int64(-1)
		for _, c := range ix.children[s.ID] {
			if cs := ix.spans[c]; cs.Name == child && cs.End() > last {
				last = cs.End()
			}
		}
		if last >= 0 {
			out = append(out, float64(last-s.StartNs)/1e3)
		}
	}
	return out
}

// traceSpan returns the duration (ns) of the first span with the name in
// a trace, or -1.
func (ix *spanIndex) traceSpan(tr tracing.TraceID, name string) int64 {
	for _, i := range ix.byTrace[tr] {
		if ix.spans[i].Name == name {
			return ix.spans[i].DurNs
		}
	}
	return -1
}

// breakerRejections counts client attempt spans that a circuit breaker
// failed fast.
func (ix *spanIndex) breakerRejections() int {
	n := 0
	for _, s := range ix.spans {
		if strings.HasPrefix(s.Name, "rpc:") && strings.Contains(s.Err, "circuit open") {
			n++
		}
	}
	return n
}
