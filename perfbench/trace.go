package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. IDs are unique
// within a run; parent 0 marks a root span.
type span struct {
	id, parent int64
	name       string
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps every span of one traced run in memory and writes them
// once, when the run ends. Each goroutine records through its own lane, so
// recording takes no lock. A nil *lane records nothing: the end-to-end runs
// pass nil lanes, which keeps tracing off there.
type recorder struct {
	run   string
	epoch time.Time
	lanes []*lane
}

type lane struct {
	rec   *recorder
	idx   int64
	spans []span
}

const laneShift = 40 // span id = lane index << laneShift | (slice index + 1)

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// lane returns a fresh lane. Call it before the goroutine that owns the
// lane starts.
func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{rec: r, idx: int64(len(r.lanes)), spans: make([]span, 0, 1<<14)}
	r.lanes = append(r.lanes, l)
	return l
}

// start opens a span and returns its id.
func (l *lane) start(name string, parent int64) int64 {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{parent: parent, name: name, start: int64(time.Since(l.rec.epoch))})
	id := l.idx<<laneShift | int64(len(l.spans))
	l.spans[len(l.spans)-1].id = id
	return id
}

// finish closes the span start returned.
func (l *lane) finish(id int64) {
	if l == nil {
		return
	}
	l.spans[id&(1<<laneShift-1)-1].end = int64(time.Since(l.rec.epoch))
}

// spans returns every span of the run.
func (r *recorder) spans() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) []selfStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := make(map[string]*selfStat)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.name]
		if !ok {
			st = &selfStat{name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		d := time.Duration(s.end - s.start)
		st.count++
		st.total += d
		st.self += d - coverage(s, children[s.id])
	}
	out := make([]selfStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// coverage returns how much of parent's interval the union of kids covers.
func coverage(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return time.Duration(covered + curHi - curLo)
}

// writeSpans writes the run's spans to path as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Run     string `json:"run"`
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, s := range r.spans() {
		if err := enc.Encode(rec{r.run, s.id, s.parent, s.name, s.start, s.end}); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
