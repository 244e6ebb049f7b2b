// Command faclocperf is the repository's end-to-end benchmark: it hosts
// faclocd servers in process (serve.New, EnableCluster, Handler), drives
// them over loopback HTTP with at most two requests in flight, checks
// every answer, and prints the end-to-end metrics of one workload. With
// -trace 1 it instead runs the same workload with spans and per-layer
// passes and prints the per-layer metrics.
//
//	faclocperf --workload cold-solve|hot-query|cluster-rounds --seed N --seconds S --trace 0|1
//	faclocperf steady --workload W --runs 10 [--seconds S] [--out results.jsonl]
//	faclocperf compare parent.jsonl change.jsonl
//
// The last line of a benchmark run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A wrong answer fails the run (exit 1). Everything the run writes stays
// under .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes: data directories, traces.
const workDir = ".bench_build"

// saturateRate is the arrival rate -saturate schedules: past what two
// connections can serve, so the run reads the saturation throughput.
const saturateRate = 8000

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:], os.Stdout))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, fullSizes))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func benchMain(args []string, out io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("faclocperf", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-solve, hot-query or cluster-rounds")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	saturate := fs.Bool("saturate", false, "hot-query only: send back to back and print the saturation rate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "faclocperf: unknown workload %q\n", *name)
		return 2
	}
	if *saturate {
		sz.rate = saturateRate
	}
	res, err := runWorkload(out, *name, *seed, *seconds, *trace == 1, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faclocperf:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up, runs it, and assembles its result.
func runWorkload(out io.Writer, name string, seed int64, seconds float64, traced bool, sz sizes) (*result, error) {
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{seed: seed, seconds: seconds, sz: sz, rec: newRecorder(), panics: &panicCounter{}}
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		w = workloads[name]()
		e.dir = filepath.Join(dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		err := w.setup(e)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.stop()
			return nil, err
		}
		if i < setupRepeats-1 {
			w.stop()
		}
	}
	defer w.stop()

	if traced {
		e.tr = &tracer{t0: time.Now()}
		if e.lay, err = newLayers(e.tr, filepath.Join(dir, "layers")); err != nil {
			return nil, err
		}
	}
	scr := newHTTPClient(1)
	defer scr.CloseIdleConnections()
	before := e.scrape(scr, w.daemons())
	start := time.Now()
	elapsed := w.run(e, time.Duration(seconds*float64(time.Second)))
	wall := time.Since(start)
	after := e.scrape(scr, w.daemons())

	res := &result{Metrics: map[string]metricValue{}}
	for _, o := range e.rec.ops {
		res.Attempted++
		if !o.ok {
			res.Failed++
		}
	}
	if res.Attempted == res.Failed {
		return nil, errors.New("no op succeeded in the window")
	}
	fmt.Fprintf(out, "workload %s seed %d: %.1f s window (%.1f s wall; the rest generated inputs), %s\n",
		name, seed, elapsed.Seconds(), wall.Seconds(), describe(name, sz))
	// Ops after the window (the traced probe phase and the known-defect
	// probe) are never among the attempted ops.
	post := newRecorder()
	if traced {
		busy := time.Duration(e.tr.busy.Load())
		probe(e, w, before, after, post)
		probeDefects(w, e, post)
		perLayer(out, e, res, busy, elapsed, name, seed, post)
	} else {
		lagNote := "inputs generated between rounds, outside the window: p90 %.4g ms per round (n=%d)"
		if name == "hot-query" {
			lagNote = "open-loop send lateness: p90 %.4g ms (n=%d)"
		}
		endToEnd(out, e, res, setups, elapsed, lagNote)
		probeDefects(w, e, post)
	}
	printPost(out, post)
	for _, msg := range post.wrong {
		e.rec.wrong = append(e.rec.wrong, "probe "+msg)
	}
	for _, msg := range e.rec.wrong {
		fmt.Fprintln(out, "WRONG ANSWER:", msg)
	}
	res.Correct = len(e.rec.wrong) == 0
	return res, nil
}

// probeDefects runs cluster-rounds' known-defect probe, after the window.
func probeDefects(w workload, e *env, rec *recorder) {
	if cr, ok := w.(*clusterRounds); ok {
		cr.defectProbe(e, rec)
	}
}

// printPost prints the ops after the window and their failures by reason.
func printPost(out io.Writer, post *recorder) {
	if len(post.ops) == 0 {
		return
	}
	reasons := map[string]int{}
	for _, o := range post.ops {
		if !o.ok {
			reasons[o.reason]++
		}
	}
	fmt.Fprintf(out, "  after the window, not among the attempted ops: %d probe ops, %d failed\n", len(post.ops), failures(post))
	printReasons(out, reasons, post.examples)
}

func failures(rec *recorder) int {
	n := 0
	for _, o := range rec.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

func describe(name string, sz sizes) string {
	switch name {
	case "cold-solve":
		return fmt.Sprintf("closed loop in rounds, 2 clients, %d×%d instances, lp-round %d×%d", sz.coldNF, sz.coldNC, sz.lpNF, sz.lpNC)
	case "hot-query":
		return fmt.Sprintf("open loop at %.0f ops/s over 2 connections, %d warm %d×%d instances", sz.rate, sz.warm, sz.warmNF, sz.warmNC)
	}
	return fmt.Sprintf("closed loop in rounds, 2 clients over 3 shards, %d×%d instances, %d-point stream, %d B budget",
		sz.clusterNF, sz.clusterNC, sz.streamN, sz.budget)
}

// endToEnd prints the untraced run's metrics; lagNote formats the lag's
// p90 and sample count.
func endToEnd(out io.Writer, e *env, res *result, setups []float64, elapsed time.Duration, lagNote string) {
	var ratios []float64
	okOps := 0
	kinds := map[string][]float64{}
	reasons := map[string]int{}
	for _, o := range e.rec.ops {
		k := o.kind
		if o.form != "" {
			k += "/" + o.form
		}
		kinds[k] = append(kinds[k], o.ms)
		if o.ok {
			okOps++
		} else {
			reasons[o.reason]++
		}
		if o.costRatio > 0 {
			ratios = append(ratios, o.costRatio)
		}
	}
	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-18s %12.6g %-6s %s\n", name, v, unit, note)
	}
	lat := latencies(e.rec.ops)
	put("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	put("throughput_ops_s", "ops/s", float64(okOps)/elapsed.Seconds(), fmt.Sprintf("(%d successful ops in %.2f s)", okOps, elapsed.Seconds()))
	put("latency_p50_ms", "ms", quantile(lat, 0.5), fmt.Sprintf("(over the n=%d successful ops; the %d failed ones count in success_ratio)", len(lat), res.Failed))
	put("latency_p90_ms", "ms", quantile(lat, 0.9), fmt.Sprintf("(over the n=%d successful ops, %d beyond p90)", len(lat), len(lat)/10))
	put("success_ratio", "ratio", float64(okOps)/float64(res.Attempted), fmt.Sprintf("(%d successful of %d attempted)", okOps, res.Attempted))
	put("cost_ratio", "ratio", mean(ratios), fmt.Sprintf("(mean over n=%d successful UFL solves; cost ÷ min_i f_i + Σ_j min_i d_ij)", len(ratios)))
	put("peak_rss_mb", "MiB", vmHWM(), "(VmHWM of the whole process: servers, clients and generator)")
	fmt.Fprintf(out, "  %-18s %12.6g %-6s (%d failed of %d attempted)\n", "failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	printReasons(out, reasons, e.rec.examples)
	if n := e.panics.n.Load(); n > 0 {
		fmt.Fprintf(out, "  server handler panics recovered by net/http: %d\n", n)
	}
	fmt.Fprintf(out, "  "+lagNote+"\n", quantile(e.rec.lagMS, 0.9), len(e.rec.lagMS))
	fmt.Fprintln(out, "  per op kind, as measured (failed ones too): n, p50 ms, p90 ms")
	for _, k := range sortedKeys(kinds) {
		fmt.Fprintf(out, "    %-22s %6d %10.4g %10.4g\n", k, len(kinds[k]), quantile(kinds[k], 0.5), quantile(kinds[k], 0.9))
	}
}

// latencies returns the successful ops' latencies for the percentiles. A
// failed op took the time it took to fail, which says nothing about the
// latency of the work it did not do, so it is left out here; failures are
// gated by success_ratio instead, and compare reports no gain when the
// change fails more ops.
func latencies(ops []opRec) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.ok {
			lat = append(lat, o.ms)
		}
	}
	return lat
}

func printReasons(out io.Writer, reasons map[string]int, examples map[string]string) {
	for _, r := range sortedKeys(reasons) {
		fmt.Fprintf(out, "    failed %5d × %s\n", reasons[r], r)
		if ex := examples[r]; ex != "" {
			fmt.Fprintf(out, "      e.g. %s\n", ex)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// perLayer prints the traced run's per-layer metrics and writes its spans.
// busy is the client time the window's layer passes took.
// post holds the ops after the window.
func perLayer(out io.Writer, e *env, res *result, busy, elapsed time.Duration, name string, seed int64, post *recorder) {
	durs := e.tr.durations()
	put := func(metricName, unit string, vals []float64, agg string) {
		v := math.NaN()
		switch agg {
		case "p50":
			v = median(vals)
		case "p90":
			v = quantile(vals, 0.9)
		}
		if math.IsNaN(v) {
			v = 0
		}
		res.Metrics[metricName] = metricValue{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s (%s of n=%d)\n", metricName, v, unit, agg, len(vals))
	}
	ratio := func(metricName string, num, den float64, base string) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		res.Metrics[metricName] = metricValue{Value: v, Unit: "ratio"}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s (%g of %g %s)\n", metricName, v, "ratio", num, den, base)
	}
	lay := e.lay.vals
	for _, s := range []struct{ metric, span string }{
		{"serve.put_ms", "serve.put"},
		{"serve.assign_ms", "serve.assign"},
		{"serve.nearest_ms", "serve.nearest"},
		{"serve.query_stream_ms", "serve.query_stream"},
		{"serve.solve_stream_ms", "serve.solve_stream"},
	} {
		put(s.metric, "ms", durs[s.span], "p50")
	}
	for _, m := range []string{"serve.solve_miss_ms", "serve.solve_hit_ms", "serve.pd_dist_ms", "serve.overhead_ms"} {
		put(m, "ms", lay[m], "p50")
	}
	delta := func(name string) float64 { return e.lay.window.after.sum(name) - e.lay.window.before.sum(name) }
	hits, misses, rejected := delta("faclocd_cache_hits"), delta("faclocd_cache_misses"), delta("faclocd_rejected_total")
	ratio("serve.cache_hit_ratio", hits, hits+misses, "solve lookups in the window")
	ratio("serve.rejected_ratio", rejected, hits+misses+rejected, "admissions in the window")
	for _, m := range []struct{ name, unit string }{
		{"core.decode_ms", "ms"}, {"core.hash_ms", "ms"}, {"core.densify_ms", "ms"},
		{"metric.sorted_orders_ms", "ms"}, {"metric.presort_share", "ratio"},
		{"greedy.solve_ms", "ms"}, {"greedy.work", "count"}, {"greedy.span", "count"}, {"greedy.rounds", "count"},
		{"primaldual.solve_ms", "ms"}, {"primaldual.work", "count"}, {"primaldual.span", "count"}, {"primaldual.rounds", "count"},
		{"lp.solve_ms", "ms"}, {"rounding.round_ms", "ms"}, {"lp.round_gap", "ratio"},
		{"cluster.solve_ms", "ms"}, {"cluster.cpu_ratio", "ratio"}, {"cluster.frames_per_solve", "count"}, {"cluster.delivered_ratio", "ratio"},
		{"mpc.solve_ms", "ms"}, {"mpc.rounds", "count"}, {"mpc.chunks", "count"}, {"mpc.merge_bytes", "B"}, {"mpc.peak_bytes", "B"},
		{"coreset.build_ms", "ms"}, {"coreset.size", "count"},
		{"durable.put_ms", "ms"}, {"durable.bytes_per_put", "B"},
		{"obs.page_bytes", "B"},
	} {
		put(m.name, m.unit, lay[m.name], "p50")
	}
	put("obs.scrape_ms", "ms", durs["serve.metrics"], "p50")
	// The ring's frame RTT and resilience counters, from the workload's
	// ring or, on single-server workloads, the probe ring.
	ring := e.lay.ring
	rtt, n := histQuantile(ring.before.histogram("faclocd_cluster_frame_rtt_seconds"), ring.after.histogram("faclocd_cluster_frame_rtt_seconds"), 0.5)
	if math.IsNaN(rtt) {
		rtt = 0
	}
	res.Metrics["cluster.frame_rtt_p50_ms"] = metricValue{Value: rtt * 1000, Unit: "ms"}
	fmt.Fprintf(out, "  %-30s %14.6g %-6s (p50 of n=%d frames, from %s)\n", "cluster.frame_rtt_p50_ms", rtt*1000, "ms", n, ring.source)
	for _, m := range []struct{ metric, family string }{
		{"resilience.peer_retries", "faclocd_cluster_peer_retries_total"},
		{"resilience.breaker_transitions", "faclocd_cluster_breaker_transitions_total"},
	} {
		v := ring.after.sum(m.family) - ring.before.sum(m.family)
		res.Metrics[m.metric] = metricValue{Value: v, Unit: "count"}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s (delta over %s)\n", m.metric, v, "count", ring.source)
	}
	put("bench.lag_p90_ms", "ms", e.rec.lagMS, "p90")
	ratio("bench.trace_overhead_ratio", ms(busy), 2*ms(elapsed), "client ms in the window spent in layer passes")
	nf := float64(failures(post))
	res.Metrics["bench.known_defect_failures"] = metricValue{Value: nf, Unit: "count"}
	fmt.Fprintf(out, "  %-30s %14.6g %-6s (failed of %d probe ops after the window)\n", "bench.known_defect_failures", nf, "count", len(post.ops))

	fmt.Fprintln(out, "  self time by span, ms (total over the run):")
	self := e.tr.selfTimes()
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(out, "    %-24s %12.2f  (n=%d)\n", k, self[k], len(durs[k]))
	}
	if path, err := writeSpans(e.tr, name, seed); err == nil {
		fmt.Fprintf(out, "  spans written to %s\n", path)
	} else {
		fmt.Fprintln(os.Stderr, "faclocperf: writing spans:", err)
	}
}

// writeSpans writes the run's spans, one JSON object per line.
func writeSpans(tr *tracer, name string, seed int64) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}
