package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.Bytes()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_inflight", "Requests in flight.")
	g.Set(7)
	g.Add(-2)
	r.GaugeFunc("test_ratio", "A float gauge.", func() float64 { return 0.75 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)
	v := r.CounterVec("test_by_solver_total", "Per-solver.", "solver")
	v.With("pd-par").Add(3)
	v.With("greedy").Inc()

	page := render(t, r)
	samples, err := ParseExposition(page)
	if err != nil {
		t.Fatalf("rendered page fails strict parse: %v\n%s", err, page)
	}
	want := map[string]float64{
		"test_requests_total":                    42,
		"test_inflight":                          5,
		"test_ratio":                             0.75,
		`test_latency_seconds_bucket{le="0.01"}`: 1,
		`test_latency_seconds_bucket{le="0.1"}`:  3,
		`test_latency_seconds_bucket{le="1"}`:    3,
		`test_latency_seconds_bucket{le="+Inf"}`: 4,
		"test_latency_seconds_count":             4,
		`test_by_solver_total{solver="pd-par"}`:  3,
		`test_by_solver_total{solver="greedy"}`:  1,
	}
	for k, wv := range want {
		if gv, ok := samples[k]; !ok {
			t.Errorf("missing series %s\n%s", k, page)
		} else if gv != wv {
			t.Errorf("series %s = %g, want %g", k, gv, wv)
		}
	}
	if sum := samples["test_latency_seconds_sum"]; math.Abs(sum-5.105) > 1e-9 {
		t.Errorf("histogram sum = %g, want 5.105", sum)
	}
	// Counters and gauges must render as bare integers: CI does shell
	// integer comparisons on scraped values.
	for _, line := range strings.Split(string(page), "\n") {
		if strings.HasPrefix(line, "test_requests_total ") || strings.HasPrefix(line, "test_inflight ") {
			val := line[strings.LastIndexByte(line, ' ')+1:]
			if strings.ContainsAny(val, ".eE") {
				t.Errorf("integer metric rendered as float: %q", line)
			}
		}
	}
}

func TestRegistryRegistrationOrderAndDedup(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second registered, first in page? no — order is registration order")
	r.Counter("a_total", "registered after b")
	// Same name twice: the second gets uniquified, never a duplicate series.
	r.Counter("dup_total", "one")
	r.Counter("dup_total", "two")
	page := render(t, r)
	if _, err := ParseExposition(page); err != nil {
		t.Fatalf("parse: %v\n%s", err, page)
	}
	bi := bytes.Index(page, []byte("b_total"))
	ai := bytes.Index(page, []byte("a_total"))
	if bi < 0 || ai < 0 || bi > ai {
		t.Errorf("registration order not preserved (b at %d, a at %d)", bi, ai)
	}
	if !bytes.Contains(page, []byte("dup_total_ ")) {
		t.Errorf("colliding registration not uniquified:\n%s", page)
	}
}

func TestSanitizeNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("9bad name!", "leading digit and spaces")
	v := r.CounterVec("vec-total", "dashes", "bad label!")
	v.With(`value with "quotes" and \slashes` + "\nnewline").Inc()
	page := render(t, r)
	if err := ValidateExposition(page); err != nil {
		t.Fatalf("sanitized page fails validation: %v\n%s", err, page)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	bad := []string{
		"no_value\n",
		"name 1\nname 1\n",        // duplicate series
		"# BOGUS comment\n",       // unknown comment form
		"# TYPE x flimflam\n",     // unknown type
		"1leading_digit 3\n",      // invalid name
		"m{l=\"unterminated} 1\n", // unterminated label value
		"m{l=\"v\"} notafloat\n",  // bad value
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", // non-monotone
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",                       // count mismatch
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",                                // missing sum
	}
	for _, s := range bad {
		if err := ValidateExposition([]byte(s)); err == nil {
			t.Errorf("validator accepted malformed page:\n%s", s)
		}
	}
	ok := "# HELP m help text\n# TYPE m counter\nm 1\nm{l=\"a\"} 2 1234567890\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("validator rejected valid page: %v\n%s", err, ok)
	}
}

// TestScrapeUnderChurn is the torn-view regression test: concurrent metric
// updates and late registrations race with scrapes (run under -race in CI),
// and every scrape must parse cleanly with monotone counter reads. Each
// writer makes a fixed number of late registrations, so the page size — and
// with it each render-plus-parse — is bounded no matter how the scheduler
// shares the cores between writers and scrapes.
func TestScrapeUnderChurn(t *testing.T) {
	const lateRegs = 16 // late registrations per writer
	r := NewRegistry()
	c := r.Counter("churn_total", "bumped concurrently")
	h := r.Histogram("churn_seconds", "observed concurrently", DurationBuckets)
	v := r.CounterVec("churn_by_solver_total", "new labels mid-scrape", "solver")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				v.With(fmt.Sprintf("solver-%d", i%8)).Inc()
				if i%64 == 0 && i/64 < lateRegs {
					// Membership churn: a late registration mid-scrape.
					r.Gauge(fmt.Sprintf("churn_late_%d_%d", w, i), "late")
				}
			}
		}(w)
	}
	var prev float64
	for i := 0; i < 200; i++ {
		page := render(t, r)
		samples, err := ParseExposition(page)
		if err != nil {
			t.Fatalf("scrape %d torn: %v\n%s", i, err, page)
		}
		cur := samples["churn_total"]
		if cur < prev {
			t.Fatalf("scrape %d: counter went backwards (%g -> %g)", i, prev, cur)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

// FuzzExposition: arbitrary registered names, help strings, and label
// values must always render a page the strict parser accepts.
func FuzzExposition(f *testing.F) {
	f.Add("name_total", "help text", "solver", "pd-par", 0.5)
	f.Add("", "", "", "", math.Inf(1))
	f.Add("9 weird\nname", "multi\nline \\help", "0label", "quote\"back\\slash\nnl", math.NaN())
	f.Fuzz(func(t *testing.T, name, help, label, lv string, obs float64) {
		r := NewRegistry()
		c := r.Counter(name, help)
		c.Add(3)
		r.Gauge(name, help).Set(-5) // forced collision with the counter
		r.GaugeFunc(name+"_fn", help, func() float64 { return obs })
		h := r.Histogram(name+"_seconds", help, []float64{0.01, 1})
		if !math.IsNaN(obs) {
			h.Observe(obs)
		}
		r.CounterVec(name+"_vec", help, label).With(lv).Inc()
		var b bytes.Buffer
		if err := r.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := ValidateExposition(b.Bytes()); err != nil {
			t.Fatalf("rendered page fails strict parse: %v\n%s", err, b.Bytes())
		}
	})
}
