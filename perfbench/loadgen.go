package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// querySample is one open-loop query, timed against the client's epoch.
type querySample struct {
	kind            int
	due, start, end time.Duration
	failed          bool
}

func (q querySample) latency() time.Duration  { return q.end - q.due }
func (q querySample) lateness() time.Duration { return q.start - q.due }

// openLoop is a single query client on a fixed schedule: query i is due at
// epoch + i*period whether or not earlier queries have finished, and its
// latency counts from that due time, so a stall also charges the queries
// queued behind it. Query i runs do(i) under the span name kinds[i%len],
// recorded while the client is told to record.
type openLoop struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	on      atomic.Bool
	samples []querySample
}

// startOpenLoop starts the client; l is the lane only its goroutine writes.
func startOpenLoop(epoch time.Time, period time.Duration, l *lane, kinds []string, do func(i int) error) *openLoop {
	q := &openLoop{stop: make(chan struct{})}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		for i := 0; ; i++ {
			due := time.Duration(i) * period
			if wait := due - time.Since(epoch); wait > 0 {
				select {
				case <-q.stop:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-q.stop:
					return
				default:
				}
			}
			kind := i % len(kinds)
			var ql *lane
			if q.on.Load() {
				ql = l
			}
			start := time.Since(epoch)
			id := ql.start(kinds[kind], 0)
			err := do(i)
			ql.finish(id)
			q.samples = append(q.samples, querySample{kind: kind, due: due, start: start, end: time.Since(epoch), failed: err != nil})
		}
	}()
	return q
}

// record turns span recording of the client's queries on or off.
func (q *openLoop) record(on bool) { q.on.Store(on) }

// halt stops the client, waits for its in-flight query, and returns every
// sample taken.
func (q *openLoop) halt() []querySample {
	close(q.stop)
	q.wg.Wait()
	return q.samples
}

// windowLen is the length of one ingest measurement.
const windowLen = time.Second

// measured is the producer's measured stretch, cut into windows that each
// run from their first offer to the end of the drain barrier closing them.
// In a traced run the windows alternate: odd windows record spans and even
// windows do not, so drift in the host's speed hits both alike and their
// difference is the trace's own cost.
type measured struct {
	offered, accepted int64
	refused           int64 // elements an offer deadline turned away
	windows           []window
	mem0, mem1        runtime.MemStats // read at the edges of the stretch
}

type window struct {
	from, to time.Duration // against the run's epoch
	accepted int64
	traced   bool
}

// drive runs the producer's closed loop for d. offer sends one batch,
// recording on the lane it is given (nil in untraced windows), and reports
// how many elements it offered and how many were accepted; barrier closes
// each window.
func (m *measured) drive(epoch time.Time, d time.Duration, trace bool, l *lane, ql *openLoop, offer func(l *lane, root int64) (int, int, error), barrier func(l *lane, root int64)) error {
	runtime.ReadMemStats(&m.mem0)
	defer runtime.ReadMemStats(&m.mem1)
	start := time.Since(epoch)
	end := start + d
	for i := 0; start < end; i++ {
		w := window{from: start, traced: trace && i%2 == 1}
		var wl *lane
		if w.traced {
			wl = l
		}
		ql.record(w.traced)
		root := wl.start("ingest", 0)
		acc := m.accepted
		for stop := min(start+windowLen, end); time.Since(epoch) < stop; {
			off, n, err := offer(wl, root)
			m.offered += int64(off)
			m.accepted += int64(n)
			if err != nil {
				wl.finish(root)
				return err
			}
		}
		barrier(wl, root)
		wl.finish(root)
		w.to, w.accepted = time.Since(epoch), m.accepted-acc
		m.windows = append(m.windows, w)
		start = w.to
	}
	ql.record(false)
	return nil
}

// ingestMelemS is the median accepted rate of the traced or untraced
// windows: a stall that hits one window moves it less than it would move a
// mean over the whole stretch.
func (m *measured) ingestMelemS(traced bool) float64 { return median(m.rates(traced)) }

// rates returns the accepted Melem/s of the traced or untraced windows.
func (m *measured) rates(traced bool) []float64 {
	var out []float64
	for _, w := range m.windows {
		if w.traced == traced {
			out = append(out, float64(w.accepted)/(w.to-w.from).Seconds()/1e6)
		}
	}
	return out
}

// meanMelemS is the accepted elements over the whole stretch.
func (m *measured) meanMelemS() float64 {
	last := m.windows[len(m.windows)-1]
	return float64(m.accepted) / (last.to - m.windows[0].from).Seconds() / 1e6
}

// queriesIn returns the samples due inside the traced or untraced windows.
func (m *measured) queriesIn(all []querySample, traced bool) []querySample {
	var out []querySample
	for _, q := range all {
		for _, w := range m.windows {
			if w.traced == traced && q.due >= w.from && q.due < w.to {
				out = append(out, q)
				break
			}
		}
	}
	return out
}

// countFailed returns how many queries returned an error.
func countFailed(qs []querySample) int64 {
	var n int64
	for _, q := range qs {
		if q.failed {
			n++
		}
	}
	return n
}

// reportQueries fills the end-to-end query metric from the untraced
// windows' samples and notes the tail.
func reportQueries(o *outcome, qs []querySample) {
	lat := make([]float64, 0, len(qs))
	for _, q := range qs {
		lat = append(lat, float64(q.latency())/1e6)
	}
	o.e2e["query_p50_ms"] = median(lat)
	if v, pct, ok := tail(lat); ok {
		o.note("query_tail_ms %.6g ms (p%.1f of %d queries, %d beyond)", v, pct, len(lat), tailBeyond)
	} else {
		o.note("query_tail_ms omitted: %d queries, fewer than %d", len(lat), 10*tailBeyond)
	}
}

// reportTraced fills the metrics every workload takes from a traced run:
// GC activity over the measured stretch, how late the open-loop client ran
// in the traced windows, and the trace's own cost.
func reportTraced(o *outcome, m *measured, queries []querySample) {
	o.layer["gc.cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)
	o.layer["gc.pause_ms"] = float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	o.layer["gc.alloc_mb_per_melem"] = float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / (1 << 20) / (float64(m.accepted) / 1e6)
	var late time.Duration
	for _, q := range m.queriesIn(queries, true) {
		late = max(late, q.lateness())
	}
	o.layer["loadgen.query_late_ms.max"] = float64(late) / 1e6
	plain, traced := m.ingestMelemS(false), m.ingestMelemS(true)
	o.layer["trace.overhead_pct"] = 100 * (plain - traced) / plain
}

// liveHeapMB forces a collection and returns the heap still in use, less
// the benchmark's own input buffers.
func liveHeapMB(inputBytes int64) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(int64(m.HeapAlloc)-inputBytes) / (1 << 20)
}

// medianSetup builds a workload's state several times and keeps the last
// build, reporting the median build time. Traced runs build once.
func medianSetup[S any](cfg runConfig, build func() (S, error)) (S, float64, error) {
	reps := 3
	if cfg.trace {
		reps = 1
	}
	var st S
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			var zero S
			st = zero
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		st, err = build()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), nil
}
