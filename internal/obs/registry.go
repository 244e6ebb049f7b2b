package obs

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; registration (Registry.RegisterCounter) is only needed for exposition.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n should be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Load is an alias for Value, matching the atomic.Int64 method set so a
// counter can drop into code (and tests) written against the raw atomic.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Load is an alias for Value (see Counter.Load).
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Observe is atomic and
// allocation-free; create histograms through Registry.Histogram.
type Histogram struct {
	bounds []float64      // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

// Observe records v in the histogram.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// DurationBuckets is the default latency bucket ladder, in seconds.
var DurationBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// CounterVec is a family of counters distinguished by one label. Create
// through Registry.CounterVec; With is safe for concurrent use.
type CounterVec struct {
	label string
	mu    sync.Mutex
	m     map[string]*Counter
}

// With returns the counter for the given label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	c := v.m[value]
	if c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	v.mu.Unlock()
	return c
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// entry is one registered family: HELP/TYPE header plus a render hook.
type entry struct {
	name, help, typ string
	render          func(b *bytes.Buffer, name string)
}

// Registry holds metrics in registration order and renders them as a
// Prometheus text-format page. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	list []*entry
	seen map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]*entry)}
}

// add registers a family under a sanitized, collision-free name and returns
// the final name used.
func (r *Registry) add(name, help, typ string, render func(b *bytes.Buffer, name string)) string {
	name = sanitizeName(name)
	r.mu.Lock()
	for {
		if _, dup := r.seen[name]; !dup {
			break
		}
		name += "_"
	}
	e := &entry{name: name, help: help, typ: typ, render: render}
	r.seen[name] = e
	r.list = append(r.list, e)
	r.mu.Unlock()
	return name
}

// RegisterCounter exposes an existing counter (possibly a struct field)
// under the given name. Returns c for chaining.
func (r *Registry) RegisterCounter(name, help string, c *Counter) *Counter {
	r.add(name, help, "counter", func(b *bytes.Buffer, n string) {
		writeSample(b, n, "", c.Value())
	})
	return c
}

// Counter creates and registers a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.RegisterCounter(name, help, &Counter{})
}

// CounterFunc registers a counter whose value is read at scrape time from
// state the caller already keeps. fn must be monotone; it is called with
// the registry lock held and must not touch the registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(name, help, "counter", func(b *bytes.Buffer, n string) {
		writeSample(b, n, "", fn())
	})
}

// RegisterGauge exposes an existing gauge under the given name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) *Gauge {
	r.add(name, help, "gauge", func(b *bytes.Buffer, n string) {
		writeSample(b, n, "", g.Value())
	})
	return g
}

// Gauge creates and registers a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.RegisterGauge(name, help, &Gauge{})
}

// GaugeFunc registers a gauge whose value is computed at scrape time. fn is
// called with the registry lock held and must not touch the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(b *bytes.Buffer, n string) {
		b.WriteString(n)
		b.WriteByte(' ')
		b.WriteString(formatValue(fn()))
		b.WriteByte('\n')
	})
}

// Histogram creates and registers a histogram with the given ascending
// bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	r.add(name, help, "histogram", func(b *bytes.Buffer, n string) {
		// Snapshot all buckets first so cumulative counts, _count, and
		// _sum come from one consistent pass.
		counts := make([]int64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		sum := h.sum.load()
		var cum int64
		for i, bound := range h.bounds {
			cum += counts[i]
			writeSample(b, n+"_bucket", `le="`+formatFloat(bound)+`"`, cum)
		}
		cum += counts[len(counts)-1]
		writeSample(b, n+"_bucket", `le="+Inf"`, cum)
		b.WriteString(n)
		b.WriteString("_sum ")
		b.WriteString(formatValue(sum))
		b.WriteByte('\n')
		writeSample(b, n+"_count", "", cum)
	})
	return h
}

// CounterVec creates and registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: sanitizeLabel(label), m: make(map[string]*Counter)}
	r.add(name, help, "counter", func(b *bytes.Buffer, n string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeSample(b, n, v.label+`="`+escapeLabelValue(k)+`"`, v.m[k].Value())
		}
		v.mu.Unlock()
	})
	return v
}

// WriteText renders the full page into one buffer under the registry lock
// and writes it with a single Write — a scrape observes one snapshot of the
// registry, never a torn view mid-registration.
func (r *Registry) WriteText(w io.Writer) error {
	var b bytes.Buffer
	r.mu.Lock()
	for _, e := range r.list {
		b.WriteString("# HELP ")
		b.WriteString(e.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(e.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(e.name)
		b.WriteByte(' ')
		b.WriteString(e.typ)
		b.WriteByte('\n')
		e.render(&b, e.name)
	}
	r.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

func writeSample(b *bytes.Buffer, name, labels string, v int64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}

// formatValue renders integral floats as bare integers (the CI smoke jobs
// do shell integer arithmetic on scraped gauges) and everything else in the
// shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabel maps an arbitrary string onto the label-name charset
// [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabel(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
