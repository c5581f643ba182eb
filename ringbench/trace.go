package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.  Spans of one scenario or request
// share ID; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so the untraced path runs the same code with no span cost beyond
// a nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (children clipped to the parent; overlapping children
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats aggregates self time per span name.
type layerStats struct {
	count int
	total int64   // summed self ns
	self  []int64 // per-span self ns
}

func (t *tracer) byName() map[string]*layerStats {
	out := make(map[string]*layerStats)
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.count++
		ls.total += self[i]
		ls.self = append(ls.self, self[i])
	}
	return out
}

// meanUS is the mean self time of the named span in microseconds (0 when
// the layer was not called).
func meanUS(st map[string]*layerStats, name string) float64 {
	ls := st[name]
	if ls == nil || ls.count == 0 {
		return 0
	}
	return us(float64(ls.total) / float64(ls.count))
}

// p50US is the median self time of the named span in microseconds.
func p50US(st map[string]*layerStats, name string) float64 {
	ls := st[name]
	if ls == nil || ls.count == 0 {
		return 0
	}
	xs := make([]float64, len(ls.self))
	for i, v := range ls.self {
		xs[i] = float64(v)
	}
	return us(median(xs))
}

// writeBreakdown prints the self-time share of every layer under the
// "scenario" roots: where a replayed scenario's wall time went.
func writeBreakdown(w io.Writer, st map[string]*layerStats) {
	root := st["scenario"]
	if root == nil || root.count == 0 {
		return
	}
	var wall int64
	names := make([]string, 0, len(st))
	for name := range st {
		if scenarioLayers[name] {
			names = append(names, name)
			wall += st[name].total
		}
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].total > st[names[j]].total })
	fmt.Fprintf(w, "# traced breakdown: %d scenarios, %.1f ms summed wall\n", root.count, float64(wall)/1e6)
	for _, name := range names {
		ls := st[name]
		fmt.Fprintf(w, "#   %-20s %6.1f%%  %9.2f us/call  %6d calls\n", name, 100*float64(ls.total)/float64(wall), us(float64(ls.total)/float64(ls.count)), ls.count)
	}
}

// scenarioLayers are the span names that nest under a "scenario" root; the
// root itself appears with its self time (work between the layer calls).
var scenarioLayers = map[string]bool{
	"scenario": true, "netgen.generate": true, "canon.transform": true, "canon.canonicalize": true,
	"engine.network": true, "task.run": true, "task.verify": true, "task.map": true,
	"campaign.encode": true, "serve.http": true,
}

// save writes the spans as one JSON document.
func (t *tracer) save(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
