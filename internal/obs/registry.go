package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry is a process-local metrics namespace: counters, gauges, and
// histograms keyed by name plus ordered label pairs. All methods are
// goroutine-safe, and all methods on a nil *Registry are no-ops returning
// nil instruments (whose methods are in turn no-ops), so instrumented code
// never guards call sites.
type Registry struct {
	mu      sync.RWMutex
	series  map[seriesKey]any // *Counter | *Gauge | *Histogram | *sampled
	ordered []seriesKey       // insertion order; sorted at exposition time
}

type seriesKey struct {
	name   string
	labels string // encoded k=v pairs, in caller order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[seriesKey]any)}
}

// encodeLabels flattens ordered k,v pairs into a cache key. An odd trailing
// key is dropped rather than panicking — telemetry must never take the
// process down.
func encodeLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	return b.String()
}

// lookup returns the existing instrument for (name, labels) or creates one
// via mk under the write lock.
func (r *Registry) lookup(name string, labels []string, mk func() any) any {
	key := seriesKey{name: name, labels: encodeLabels(labels)}
	r.mu.RLock()
	got, ok := r.series[key]
	r.mu.RUnlock()
	if ok {
		return got
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok = r.series[key]; ok {
		return got
	}
	got = mk()
	r.series[key] = got
	r.ordered = append(r.ordered, key)
	return got
}

// --- Counter ----------------------------------------------------------------

// A Counter is a monotonically increasing integer series.
type Counter struct {
	v int64
}

// Counter returns the counter named name with the given ordered label k,v
// pairs, creating it on first use. Nil registries return nil (a no-op
// counter).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func() any { return new(Counter) }).(*Counter)
}

// Add increments the counter by n (no-op on nil, negative n ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// --- Gauge ------------------------------------------------------------------

// A Gauge is a float series that can go up and down.
type Gauge struct {
	bits uint64 // float64 bits
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add offsets the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + d)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// sampled is a lazily sampled gauge or counter: the callback runs at
// exposition time.
type sampled struct {
	fn      func() float64
	counter bool
}

// GaugeFunc registers a callback-backed gauge sampled when the registry is
// rendered — the natural shape for "current queue depth" style readings
// owned by another subsystem. Re-registering the same series replaces the
// callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.sampledFunc(name, fn, false, labels)
}

// CounterFunc is GaugeFunc for a cumulative total another subsystem keeps,
// such as the runtime's GC cycle count: the series is exposed as a counter,
// so fn must never decrease.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	r.sampledFunc(name, fn, true, labels)
}

func (r *Registry) sampledFunc(name string, fn func() float64, counter bool, labels []string) {
	if r == nil || fn == nil {
		return
	}
	g := r.lookup(name, labels, func() any { return &sampled{} }).(*sampled)
	r.mu.Lock()
	g.fn, g.counter = fn, counter
	r.mu.Unlock()
}

// --- Exposition -------------------------------------------------------------

// promLabels renders the encoded label string as {k="v",...} or "".
func promLabels(enc string) string {
	if enc == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, pair := range strings.Split(enc, ",") {
		k, v, _ := strings.Cut(pair, "=")
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsExtra is promLabels with one extra pair appended (the histogram
// le bucket bound).
func promLabelsExtra(enc, k, v string) string {
	pair := k + "=" + v
	if enc == "" {
		return promLabels(pair)
	}
	return promLabels(enc + "," + pair)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in Prometheus text exposition format
// (v0.0.4). Output is deterministic: series sort by name then encoded
// labels, histograms emit cumulative le buckets plus _sum and _count. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	keys := make([]seriesKey, len(r.ordered))
	copy(keys, r.ordered)
	snap := make(map[seriesKey]any, len(r.series))
	for k, v := range r.series {
		snap[k] = v
	}
	r.mu.RUnlock()

	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	lastType := ""
	for _, k := range keys {
		var typ string
		switch inst := snap[k].(type) {
		case *Counter:
			typ = "counter"
		case *sampled:
			typ = "gauge"
			r.mu.RLock()
			if inst.counter {
				typ = "counter"
			}
			r.mu.RUnlock()
		case *Gauge:
			typ = "gauge"
		case *Histogram:
			typ = "histogram"
		default:
			continue
		}
		if head := "# TYPE " + k.name + " " + typ; head != lastType {
			fmt.Fprintln(w, head)
			lastType = head
		}
		switch inst := snap[k].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", k.name, promLabels(k.labels), inst.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", k.name, promLabels(k.labels), promFloat(inst.Value()))
		case *sampled:
			r.mu.RLock()
			fn := inst.fn
			r.mu.RUnlock()
			v := 0.0
			if fn != nil {
				v = fn()
			}
			fmt.Fprintf(w, "%s%s %s\n", k.name, promLabels(k.labels), promFloat(v))
		case *Histogram:
			s := inst.Snapshot()
			cum := uint64(0)
			for i, ub := range s.Buckets {
				cum += s.Counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", k.name, promLabelsExtra(k.labels, "le", promFloat(ub)), cum)
			}
			cum += s.Counts[len(s.Buckets)]
			fmt.Fprintf(w, "%s_bucket%s %d\n", k.name, promLabelsExtra(k.labels, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", k.name, promLabels(k.labels), promFloat(s.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", k.name, promLabels(k.labels), cum)
		}
	}
}
