package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: the benchmark records it around a call into
// a layer's public function. Parent 0 marks a root (one per request);
// spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run
// ends. It is safe for concurrent use (stream hooks record from the
// runtime's worker goroutines). Spans past limit are counted, not kept.
type tracer struct {
	t0      time.Time
	limit   int
	mu      sync.Mutex
	spans   []span
	next    int64
	dropped int
}

func newTracer(limit int) *tracer { return &tracer{t0: time.Now(), limit: limit} }

// now is the tracer clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id reserves a span id before the span ends, so children can name it.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may nest further and may overlap each other (hooks run on
// several runtime threads at once); overlap is counted once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanStats aggregates self times per span name.
type spanStats struct {
	self  map[string][]float64 // ns, per span
	roots struct{ total, self int64 }
}

func aggregate(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{self: make(map[string][]float64)}
	for _, s := range spans {
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID]))
		if s.Parent == 0 {
			st.roots.total += s.dur()
			st.roots.self += self[s.ID]
		}
	}
	return st
}

// p50 returns the median self time of name in unit (e.g. time.Microsecond).
func (st spanStats) p50(name string, unit time.Duration) float64 {
	xs := st.self[name]
	if len(xs) == 0 {
		return 0
	}
	return median(xs) / float64(unit)
}

// unattributed is the share of root-span time no layer span covers.
func (st spanStats) unattributed() float64 {
	if st.roots.total == 0 {
		return 0
	}
	return float64(st.roots.self) / float64(st.roots.total)
}

// describe lists span counts and median self times for the run's log.
func (st spanStats) describe() string {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf(" %s[n=%d p50=%.1fus]", n, len(st.self[n]), st.p50(n, time.Microsecond))
	}
	return out
}
