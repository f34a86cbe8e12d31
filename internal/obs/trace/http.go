package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Summary is the list-view shape the HTTP handler serves for one
// completed trace.
type Summary struct {
	// ID is the trace ID (fetch the full tree with ?id=).
	ID uint64 `json:"id"`
	// Name is the root span's name.
	Name string `json:"name"`
	// DurNs is the root span's duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Spans is the tree's span count.
	Spans int `json:"spans"`
	// ExclusiveNs is the tree's summed MV-exclusive time.
	ExclusiveNs int64 `json:"exclusive_ns"`
}

// Handler serves the tracer's ring over HTTP (the cmd/dvmstatsd
// /trace endpoint):
//
//	GET /trace            JSON list of trace summaries, newest first
//	GET /trace?n=10       at most 10 summaries
//	GET /trace?id=42      the full span tree of trace 42 (JSON)
//	GET /trace?id=42&format=text  the dvmsh \trace rendering
//	GET /trace?format=chrome      the ring as Chrome trace-event JSON
//	                              (load in Perfetto; ?n= applies)
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if idStr := q.Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			tr := t.Get(id)
			if tr == nil {
				http.Error(w, "no such trace", http.StatusNotFound)
				return
			}
			if q.Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				if _, err := w.Write([]byte(Render(tr))); err != nil {
					return // client went away; nothing useful left to send
				}
				return
			}
			writeJSON(w, tr)
			return
		}
		n := 0
		if ns := q.Get("n"); ns != "" {
			v, err := strconv.Atoi(ns)
			if err != nil || v < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		traces := t.Last(n)
		if q.Get("format") == "chrome" {
			data, err := ChromeJSON(traces)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if _, err := w.Write(data); err != nil {
				return // client went away; nothing useful left to send
			}
			return
		}
		out := make([]Summary, 0, len(traces))
		for _, tr := range traces {
			out = append(out, Summary{
				ID: tr.ID, Name: tr.Root.Name, DurNs: int64(tr.Root.Dur),
				Spans: tr.Spans, ExclusiveNs: tr.ExclusiveNs,
			})
		}
		writeJSON(w, out)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
