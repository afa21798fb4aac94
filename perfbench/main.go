// Command perfbench is the repository benchmark. It drives the public shard
// and farm APIs through three named workloads, checks their outputs against
// serial references, and prints the end-to-end metrics; with --trace 1 it
// instead records spans around every call into a layer and prints the
// per-layer metrics, the stage ledger and the span file.
//
// Run it from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload serve-dense --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check makes
// the exit code 1. Result and span files go to .bench_build/perfbench;
// compare two result files with
//
//	bash perfbench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	rec     *recorder // nil unless tracing
}

// outcome is what a workload reports.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // extra measured lines printed before the result
	attempted int64
	failed    int64
	checks    []check
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// verify records one correctness check. A failed check counts as one
// failed operation.
func (o *outcome) verify(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return len(o.checks) > 0
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-dense":  serveDense.run,
	"serve-sparse": serveSparse.run,
	"farm-churn":   runFarmChurn,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-dense, serve-sparse or farm-churn")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 8, "how long one run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve-dense|serve-sparse|farm-churn, --seconds > 0 and --trace 0|1 (got %q, %v, %d)\n", *name, *seconds, *trace)
		return 2
	}
	outDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, time.Now().UnixNano())
	if cfg.trace {
		cfg.rec = newRecorder(runID)
	}
	fp := takeFingerprint(".")
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	defs, values := endToEnd, o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	metrics := make(map[string]resultMetric, len(defs))
	for _, d := range defs {
		v, measured := values[d.name]
		v = finite(v)
		metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-32s %14.6g %-9s", d.name, v, d.unit)
		if cfg.trace {
			if !measured {
				line += " (no work in this workload)"
			}
			line += " -> " + d.moves
		}
		fmt.Fprintln(stdout, strings.TrimRight(line, " "))
	}
	for _, c := range o.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(stdout, "check %s %s: %s\n", status, c.name, c.detail)
	}
	if cfg.rec != nil {
		path := filepath.Join(outDir, runID+".spans.jsonl")
		if err := cfg.rec.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
		fmt.Fprintf(stdout, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range selfTimes(cfg.rec.spans()) {
			fmt.Fprintf(stdout, "%-28s %8d %12.3f %12.3f\n", st.name, st.count,
				float64(st.total)/1e6, float64(st.self)/1e6)
		}
	}
	res := result{
		Workload: *name, Seed: *seed, Trace: *trace, Fingerprint: fp, Notes: o.notes,
		Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics,
	}
	if err := writeResult(filepath.Join(outDir, runID+".json"), res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the file each run leaves beside its spans.
type result struct {
	Workload    string                  `json:"workload"`
	Seed        uint64                  `json:"seed"`
	Trace       int                     `json:"trace"`
	Fingerprint fingerprint             `json:"fingerprint"`
	Correct     bool                    `json:"correct"`
	Attempted   int64                   `json:"attempted"`
	Failed      int64                   `json:"failed"`
	Metrics     map[string]resultMetric `json:"metrics"`
	Notes       []string                `json:"notes"`
}

func writeResult(path string, r result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints two result files side by side and flags them as not
// comparable when they were taken on different machines.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "A %s seed=%d trace=%d %s\n", a.Workload, a.Seed, a.Trace, a.Fingerprint)
	fmt.Fprintf(stdout, "B %s seed=%d trace=%d %s\n", b.Workload, b.Seed, b.Trace, b.Fingerprint)
	if d := a.Fingerprint.machineDiffs(b.Fingerprint); len(d) > 0 {
		fmt.Fprintf(stdout, "NOT COMPARABLE: %s\n", strings.Join(d, "; "))
	} else if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintln(stdout, "NOT COMPARABLE: different workload or trace mode")
	} else {
		fmt.Fprintln(stdout, "comparable: same machine fingerprint")
	}
	defs := endToEnd
	if a.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
		ratio := "-"
		if va != 0 {
			ratio = fmt.Sprintf("%.3f", vb/va)
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g  B/A=%s %s\n", d.name, va, vb, ratio, d.unit)
	}
	return 0
}
