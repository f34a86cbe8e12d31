package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kind distinguishes the metric types a Registry holds.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for rendering.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// metricKey identifies one metric instance: a family name plus an
// optional label (the view, table, or statement kind it is about).
type metricKey struct {
	name  string
	label string
}

// Registry is a named collection of metrics. Metrics are created lazily
// and exactly once per (name, label) pair; the returned pointers are
// stable, so hot paths cache them and never touch the registry lock
// again. One Registry belongs to one core.Manager.
type Registry struct {
	mu        sync.Mutex
	counters  map[metricKey]*Counter
	gauges    map[metricKey]*Gauge
	histIndex map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[metricKey]*Counter),
		gauges:    make(map[metricKey]*Gauge),
		histIndex: make(map[metricKey]*Histogram),
	}
}

// Counter returns the counter for (name, label), creating it on first
// use. label may be empty for unlabeled families.
func (r *Registry) Counter(name, label string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, label), creating it on first use.
func (r *Registry) Gauge(name, label string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, label), creating it on
// first use.
func (r *Registry) Histogram(name, label string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	h, ok := r.histIndex[k]
	if !ok {
		h = &Histogram{}
		r.histIndex[k] = h
	}
	return h
}

// Metric is one metric's state inside a Snapshot.
type Metric struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Kind  string `json:"kind"`

	// Value is the counter or gauge value.
	Value int64 `json:"value,omitempty"`

	// Histogram summary fields.
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Max     int64    `json:"max,omitempty"`
	P50     int64    `json:"p50,omitempty"`
	P90     int64    `json:"p90,omitempty"`
	P99     int64    `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// sorted by (Name, Label) for deterministic rendering and diffing.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures the current state of every metric. It is safe
// against concurrent observation; per-histogram fields may be off by
// observations in flight.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histIndex))
	for k, c := range r.counters {
		out = append(out, Metric{Name: k.name, Label: k.label, Kind: KindCounter.String(), Value: c.Load()})
	}
	for k, g := range r.gauges {
		out = append(out, Metric{Name: k.name, Label: k.label, Kind: KindGauge.String(), Value: g.Load()})
	}
	for k, h := range r.histIndex {
		out = append(out, histMetric(k.name, k.label, h))
	}
	slices.SortFunc(out, compareMetrics)
	return Snapshot{Metrics: out}
}

// histMetric is one histogram's state as a snapshot Metric.
func histMetric(name, label string, h *Histogram) Metric {
	return Metric{
		Name: name, Label: label, Kind: KindHistogram.String(),
		Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		Buckets: h.Buckets(),
	}
}

// compareMetrics orders metrics by (Name, Label), the order every
// Snapshot keeps.
func compareMetrics(a, b Metric) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Label, b.Label))
}

// Get returns the metric for (name, label), if present.
func (s Snapshot) Get(name, label string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Label == label {
			return m, true
		}
	}
	return Metric{}, false
}

// Filter returns the snapshot restricted to metrics whose family name
// starts with prefix (the dvmsh \stats [prefix] filter). Order is
// preserved.
func (s Snapshot) Filter(prefix string) Snapshot {
	var kept []Metric
	for _, m := range s.Metrics {
		if strings.HasPrefix(m.Name, prefix) {
			kept = append(kept, m)
		}
	}
	return Snapshot{Metrics: kept}
}

// Family returns every metric of one family (all labels), in label
// order.
func (s Snapshot) Family(name string) []Metric {
	var out []Metric
	for _, m := range s.Metrics {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// Families returns the distinct metric family names, sorted. This is
// the set docs/observability.md must document 1:1 (enforced by test).
func (s Snapshot) Families() []string {
	var out []string
	for _, m := range s.Metrics {
		if len(out) == 0 || out[len(out)-1] != m.Name {
			out = append(out, m.Name)
		}
	}
	return out
}
