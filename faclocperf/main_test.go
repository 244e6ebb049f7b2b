package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toySizes shrink every workload to run in about a second.
var toySizes = sizes{
	coldNF: 10, coldNC: 40,
	lpNF: 4, lpNC: 8,
	warm: 2, warmNF: 10, warmNC: 40,
	writeNF: 5, writeNC: 20,
	bulkLines: 200,
	rate:      200,
	clusterNF: 8, clusterNC: 32,
	streamN: 2000, streamK: 3,
	budget: 1 << 20,
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestWorkloadsPrintEveryMetric runs every workload the benchmark
// implements (BENCHMARK.json lists a subset) at toy size, untraced and
// traced, and requires the last line to carry exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := readSpec(t)
	t.Chdir(t.TempDir())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not implement", w.Name)
		}
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trace)}
				if code := benchMain(args, &out, toySizes); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				// The known defects stay out of the listed workloads' windows
				// and are counted after them.
				if name == "cluster-rounds" {
					if res.Failed != 0 {
						t.Errorf("%d of %d ops failed in the window:\n%s", res.Failed, res.Attempted, out.String())
					}
					if !strings.Contains(out.String(), "after the window, not among the attempted ops") {
						t.Errorf("no post-window probe ops printed:\n%s", out.String())
					}
				}
				want := map[string]string{}
				if trace == 0 {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", name, got, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestEndToEndTableMatchesSpec keeps the compare report's directions and
// bounds equal to BENCHMARK.json's.
func TestEndToEndTableMatchesSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the report %d", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2e[i].name || m.Unit != e2e[i].unit || m.Better != e2e[i].better || m.Bound != e2e[i].bound {
			t.Errorf("metric %d: BENCHMARK.json %+v, report %+v", i, m, e2e[i])
		}
	}
}

func TestCheckerRejectsWrongCost(t *testing.T) {
	u := genUFL(rngFor(1, 0, tagUFL), 6, 30, false, 500, 1500)
	open := []int{0, 3}
	cost, _ := u.openCost(open)
	resp := func(c float64) []byte {
		return fmt.Appendf(nil, `{"id":"x","instance_hash":"h","cached":false,"report":{"solver":"pd-par","cost":%v,"open":[0,3],"clients":30}}`, c)
	}
	if _, err := checkSolve(resp(cost), u, "pd-par"); err != nil {
		t.Fatalf("correct cost rejected: %v", err)
	}
	_, err := checkSolve(resp(cost*1.01), u, "pd-par")
	var wa *wrongAnswer
	if !errors.As(err, &wa) {
		t.Fatalf("cost off by 1%% accepted (err %v)", err)
	}
}

func TestCheckerRejectsTruncatedBulkQuery(t *testing.T) {
	u := genUFL(rngFor(1, 0, tagUFL), 6, 30, false, 500, 1500)
	open := []int{1, 4}
	var qs []query
	var body []byte
	for j := 0; j < 10; j++ {
		qs = append(qs, query{client: j})
		best, fac := 0.0, -1
		for _, i := range open {
			if d := u.d(i, j); fac < 0 || d < best {
				best, fac = d, i
			}
		}
		body = fmt.Appendf(body, "{\"client\":%d,\"facility\":%d,\"distance\":%v}\n", j, fac, best)
	}
	if err := checkQueryStream(body, nil, u, open, qs, 1); err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	cut := body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1]
	var wa *wrongAnswer
	if err := checkQueryStream(cut, nil, u, open, qs, 1); !errors.As(err, &wa) {
		t.Fatalf("stream missing its last answer: err %v, want a wrong answer", err)
	}
	var ab *errAborted
	if err := checkQueryStream(cut, errors.New("unexpected EOF"), u, open, qs, 1); !errors.As(err, &ab) {
		t.Fatalf("stream cut off by a read error: err %v, want an aborted stream", err)
	}
}

func TestGeneratedInputsRepeatPerSeed(t *testing.T) {
	for _, dense := range []bool{false, true} {
		a := genUFL(rngFor(9, 4, tagUFL), 7, 25, dense, 500, 1500)
		b := genUFL(rngFor(9, 4, tagUFL), 7, 25, dense, 500, 1500)
		c := genUFL(rngFor(10, 4, tagUFL), 7, 25, dense, 500, 1500)
		if !bytes.Equal(a.body, b.body) || bytes.Equal(a.body, c.body) {
			t.Errorf("dense=%v: same seed must give the same bytes, another seed other bytes", dense)
		}
	}
	if !bytes.Equal(genStream(rngFor(9, 0, tagStream), 500, 3).body, genStream(rngFor(9, 0, tagStream), 500, 3).body) {
		t.Error("stream bytes differ for the same seed")
	}
	w := &hotQuery{warm: []*warmSol{{u: genUFL(rngFor(9, 0, tagWarm), 5, 20, false, 500, 1500)}}}
	e := &env{seed: 9, sz: toySizes}
	s1, s2 := w.newSchedule(e, tagSchedule, 1e9), w.newSchedule(e, tagSchedule, 1e9)
	if fmt.Sprint(s1.ops) != fmt.Sprint(s2.ops) || len(s1.writes) != len(s2.writes) {
		t.Error("hot-query schedule differs for the same seed")
	}
}

// TestFailedOpsLeaveTheLatencies: a fast failure does not pull the latency
// percentiles down.
func TestFailedOpsLeaveTheLatencies(t *testing.T) {
	ops := []opRec{{ms: 5, ok: true}, {ms: 1, ok: false}, {ms: 7, ok: true}}
	if lat := latencies(ops); fmt.Sprint(lat) != "[5 7]" {
		t.Fatalf("latencies = %v, want [5 7]", lat)
	}
}

// TestCompareRefusesGainWithMoreFailures: a change that wins every pair
// on latency but fails more ops is not reported as a gain.
func TestCompareRefusesGainWithMoreFailures(t *testing.T) {
	set := func(latency float64, failed int) []record {
		var recs []record
		for i := 0; i < 10; i++ {
			recs = append(recs, record{Workload: "w", Seed: int64(i), Result: &result{
				Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"latency_p50_ms": {Value: latency + float64(i)/100, Unit: "ms"}},
			}})
		}
		return recs
	}
	var out bytes.Buffer
	compare(&out, set(10, 0), set(5, 0))
	if !strings.Contains(out.String(), "gain") || strings.Contains(out.String(), "no gain") {
		t.Fatalf("a faster change with no more failures is not a gain:\n%s", out.String())
	}
	out.Reset()
	compare(&out, set(10, 0), set(5, 3))
	if !strings.Contains(out.String(), "no gain: the change fails more ops") {
		t.Fatalf("a faster change that fails more ops reads as a gain:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{7, 1, 3, 9, 2, 10, 4, 6, 5, 8})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
