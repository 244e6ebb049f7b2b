package main

// The steadiness and compare reports. steady runs one workload repeatedly,
// one process per run and a different seed each time, and prints each
// end-to-end metric's median, quartiles and spread; compare reads two
// result sets and prints per-workload medians and the share of
// parent/change pairs each side won.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// e2e is the end-to-end metric table; BENCHMARK.json carries the same
// names, units, directions and bounds.
var e2e = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.01},
	{"cost_ratio", "ratio", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// record is one line of a result set.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

func steadyMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, seeds seed0 … seed0+runs-1")
	seed0 := fs.Int64("seed0", 1, "first seed")
	seconds := fs.Float64("seconds", 10, "timed window per run")
	outPath := fs.String("out", "", "append each run's record to this JSONL result set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var recs []record
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		start := time.Now()
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: run with seed %d: %v\n%s", seed, err, b)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "steady: seed %d: unreadable result: %v\n", seed, err)
			return 1
		}
		recs = append(recs, record{Workload: *name, Seed: seed, Result: &res})
		fmt.Fprintf(out, "run %d seed %d: %.1f s, %d attempted, %d failed\n", i+1, seed, time.Since(start).Seconds(), res.Attempted, res.Failed)
	}
	if *outPath != "" {
		if err := appendRecords(*outPath, recs); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 1
		}
	}
	fmt.Fprintf(out, "%s over %d runs: median [q1, q3] spread=(q3-q1)/median\n", *name, len(recs))
	for _, m := range metricNames(recs) {
		vals := values(recs, m)
		q1, q2, q3 := quartiles(vals)
		fmt.Fprintf(out, "  %-30s %12.6g [%12.6g, %12.6g] spread %.4f%s\n", m, q2, q1, q3, (q3-q1)/math.Abs(q2), boundNote(m))
	}
	return 0
}

func boundNote(name string) string {
	for _, m := range e2e {
		if m.name == name {
			return fmt.Sprintf("  (bound %.2f, a third of it %.4f)", m.bound, m.bound/3)
		}
	}
	return ""
}

func appendRecords(path string, recs []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("%s: unreadable record: %v", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func metricNames(recs []record) []string {
	seen := map[string]bool{}
	for _, r := range recs {
		for k := range r.Result.Metrics {
			seen[k] = true
		}
	}
	return sortedKeys(seen)
}

func values(recs []record, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// compareMain pairs the i-th parent record of a workload with the i-th
// change record, in file order, so runs made alternately pair up.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: faclocperf compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change []record
		change, err = readRecords(args[1])
		if err == nil {
			compare(out, parent, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 1
}

func byWorkload(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

func compare(out io.Writer, parent, change []record) {
	pw, cw := byWorkload(parent), byWorkload(change)
	for _, w := range sortedKeys(pw) {
		ps, cs := pw[w], cw[w]
		if len(cs) == 0 {
			fmt.Fprintf(out, "%s: no change runs\n", w)
			continue
		}
		pairs := min(len(ps), len(cs))
		pf, cf := failedShare(ps), failedShare(cs)
		fmt.Fprintf(out, "%s: %d parent runs, %d change runs, %d pairs; failed ops: parent %.4g, change %.4g of attempted\n",
			w, len(ps), len(cs), pairs, pf, cf)
		fmt.Fprintf(out, "  %-18s %12s %12s %10s %8s  %s\n", "metric", "parent p50", "change p50", "parent IQR", "won", "verdict")
		for _, m := range e2e {
			pv, cv := values(ps, m.name), values(cs, m.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pq1, pmed, pq3 := quartiles(pv)
			_, cmed, _ := quartiles(cv)
			better := func(c, p float64) bool {
				if m.better == "higher" {
					return c > p
				}
				return c < p
			}
			won := 0
			for i := 0; i < pairs; i++ {
				if better(cs[i].Result.Metrics[m.name].Value, ps[i].Result.Metrics[m.name].Value) {
					won++
				}
			}
			share := float64(won) / float64(pairs)
			worse := (cmed - pmed) / math.Abs(pmed)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "no change within bound"
			switch {
			case share >= 0.9 && math.Abs(cmed-pmed) > pq3-pq1 && cf > pf:
				verdict = "no gain: the change fails more ops than the parent"
			case share >= 0.9 && math.Abs(cmed-pmed) > pq3-pq1:
				verdict = "gain"
			case worse > m.bound:
				verdict = fmt.Sprintf("regression (worse by %.3f > bound %.2f)", worse, m.bound)
			case (pq3-pq1)/math.Abs(pmed) > m.bound:
				verdict = "unresolved (parent spread exceeds the bound)"
			}
			fmt.Fprintf(out, "  %-18s %12.6g %12.6g %10.4g %7.0f%%  %s\n", m.name, pmed, cmed, pq3-pq1, 100*share, verdict)
		}
	}
}

// failedShare is the share of all attempted ops that failed over recs.
func failedShare(recs []record) float64 {
	failed, attempted := 0, 0
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
