package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"time"
)

// runtimeFamilies are the go_* families Scrape reads from
// runtime/metrics, each with the runtime sample it exports.
var runtimeFamilies = [...]struct {
	name, src string
	kind      Kind
}{
	{"go_goroutines", "/sched/goroutines:goroutines", KindGauge},
	{"go_heap_live_bytes", "/memory/classes/heap/objects:bytes", KindGauge},
	{"go_gc_cycles", "/gc/cycles/total:gc-cycles", KindCounter},
	{"go_gc_pause_ns", "/sched/pauses/total/gc:seconds", KindHistogram},
	{"go_sched_latency_ns", "/sched/latencies:seconds", KindHistogram},
}

// Scrape returns r's snapshot plus the Go runtime's health families
// (goroutines, live heap, GC cycles and pauses, scheduler latency),
// read from runtime/metrics when it is called and merged in (Name,
// Label) order. The runtime's counter and histograms are cumulative
// since process start; each histogram is rebuilt per scrape in obs's
// log2 buckets. The runtime is process-wide, so its families live here
// and not in any one manager's registry: Registry.Snapshot stays
// engine-only.
func Scrape(r *Registry) Snapshot {
	samples := make([]metrics.Sample, len(runtimeFamilies))
	for i, f := range runtimeFamilies {
		samples[i].Name = f.src
	}
	metrics.Read(samples)
	snap := r.Snapshot()
	for i, f := range runtimeFamilies {
		m := Metric{Name: f.name, Kind: f.kind.String()}
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			m.Value = int64(v.Uint64())
		case metrics.KindFloat64Histogram:
			var h Histogram
			rh := v.Float64Histogram()
			for j, n := range rh.Counts {
				h.ObserveN(bucketMidNs(rh.Buckets, j), n)
			}
			m = histMetric(f.name, "", &h)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	slices.SortFunc(snap.Metrics, compareMetrics)
	return snap
}

// bucketMidNs returns a representative nanosecond value for bucket i
// of a runtime/metrics histogram over seconds (bounds has one more
// entry than the counts; the first and last may be infinite).
func bucketMidNs(bounds []float64, i int) int64 {
	lo, hi := bounds[i], bounds[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		lo = 0
	case math.IsInf(hi, 1):
		hi = lo * 2
	}
	return int64(max((lo+hi)/2, 0) * float64(time.Second))
}

// snapshotFor scrapes the registry (Scrape), restricted by the
// request's ?filter= family-name prefix when present — the same prefix
// filter dvmsh \stats applies via Snapshot.Filter.
func snapshotFor(r *Registry, req *http.Request) Snapshot {
	snap := Scrape(r)
	if p := req.URL.Query().Get("filter"); p != "" {
		snap = snap.Filter(p)
	}
	return snap
}

// Handler returns an expvar-style HTTP handler that serves a JSON
// snapshot of the registry on every request, so long-running workloads
// (cmd/dvmstatsd, or any embedder) can be scraped. With ?format=text
// it serves the same aligned table the dvmsh \stats command prints;
// ?filter=PREFIX restricts either form to families with that name
// prefix. The Content-Type header is set before any byte is written.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := snapshotFor(r, req)
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if _, err := w.Write([]byte(snap.String())); err != nil {
				return
			}
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromHandler returns the /metrics handler: the registry snapshot in
// Prometheus text exposition format (WriteProm), honouring the same
// ?filter= prefix as Handler. Rendering happens into a buffer first so
// an error never corrupts a half-written scrape.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := snapshotFor(r, req)
		var buf bytes.Buffer
		if err := WriteProm(&buf, snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
	})
}
