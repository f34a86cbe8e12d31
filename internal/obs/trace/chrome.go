package trace

import (
	"encoding/json"
	"fmt"
)

// ChromeEvent is one entry of a Chrome trace-event file's
// traceEvents array (the subset this engine emits: duration events,
// phases "B" and "E").
type ChromeEvent struct {
	// Name is the span name.
	Name string `json:"name"`
	// Cat is the event category ("dvm").
	Cat string `json:"cat"`
	// Ph is the phase: "B" (begin) or "E" (end).
	Ph string `json:"ph"`
	// Ts is the timestamp in microseconds (fractional for sub-µs).
	Ts float64 `json:"ts"`
	// Pid is the process ID (always 1).
	Pid int64 `json:"pid"`
	// Tid is the thread lane; each trace gets its own (its trace ID),
	// so trees render as separate rows in Perfetto.
	Tid int64 `json:"tid"`
	// Args carries the span attributes on "B" events.
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object of a trace-event file.
type chromeFile struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// ChromeJSON renders completed traces as a Chrome trace-event JSON
// file, loadable in Perfetto or chrome://tracing. Each trace becomes
// a lane (tid = trace ID); timestamps are microseconds relative to
// the earliest root start and are clamped non-decreasing per lane so
// the file is always valid even when child durations were measured
// by a different clock than the wall.
func ChromeJSON(traces []*Trace) ([]byte, error) {
	// Oldest first so lanes appear in causal order.
	ordered := make([]*Trace, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i] != nil && traces[i].Root != nil {
			ordered = append(ordered, traces[i])
		}
	}
	var events []ChromeEvent
	var base int64
	for i, tr := range ordered {
		if i == 0 || tr.Root.Start.UnixNano() < base {
			base = tr.Root.Start.UnixNano()
		}
	}
	for _, tr := range ordered {
		cur := float64(0)
		events = emitChrome(events, tr.Root, int64(tr.ID), base, &cur)
	}
	return json.MarshalIndent(chromeFile{TraceEvents: events}, "", " ")
}

// emitChrome appends B/E events for s and its subtree, advancing cur
// (the lane's monotonic clock in µs).
func emitChrome(events []ChromeEvent, s *Span, tid, base int64, cur *float64) []ChromeEvent {
	ts := float64(s.Start.UnixNano()-base) / 1e3
	if ts < *cur {
		ts = *cur
	}
	*cur = ts
	args := make(map[string]any, len(s.Attrs)+1)
	for _, a := range s.Attrs {
		if a.IsInt {
			args[a.Key] = a.I
		} else {
			args[a.Key] = a.S
		}
	}
	if s.Exclusive {
		args["exclusive"] = true
	}
	events = append(events, ChromeEvent{Name: s.Name, Cat: "dvm", Ph: "B", Ts: ts, Pid: 1, Tid: tid, Args: args})
	for _, c := range s.Children {
		events = emitChrome(events, c, tid, base, cur)
	}
	end := ts + float64(s.Dur)/1e3
	if end < *cur {
		end = *cur
	}
	*cur = end
	return append(events, ChromeEvent{Name: s.Name, Cat: "dvm", Ph: "E", Ts: end, Pid: 1, Tid: tid})
}

// ParseChrome parses and validates a Chrome trace-event JSON file
// produced by ChromeJSON: the traceEvents array must be well-formed,
// timestamps must be non-decreasing within each lane, and every "B"
// must be closed by a matching "E" (properly nested per lane). It
// returns the parsed events. dvmstatsd's test runs this round trip on
// what GET /trace?format=chrome serves.
func ParseChrome(data []byte) ([]ChromeEvent, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: invalid chrome JSON: %v", err)
	}
	lastTs := make(map[int64]float64)
	stacks := make(map[int64][]string)
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has no name", i)
		}
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			return nil, fmt.Errorf("trace: event %d (%s) ts %v precedes %v on tid %d", i, ev.Name, ev.Ts, prev, ev.Tid)
		}
		lastTs[ev.Tid] = ev.Ts
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
		case "E":
			st := stacks[ev.Tid]
			if len(st) == 0 {
				return nil, fmt.Errorf("trace: event %d: E %q with no open B on tid %d", i, ev.Name, ev.Tid)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return nil, fmt.Errorf("trace: event %d: E %q does not match open B %q on tid %d", i, ev.Name, top, ev.Tid)
			}
			stacks[ev.Tid] = st[:len(st)-1]
		default:
			return nil, fmt.Errorf("trace: event %d has unsupported phase %q", i, ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace: tid %d has %d unclosed B events (first %q)", tid, len(st), st[0])
		}
	}
	return f.TraceEvents, nil
}
