package obs

import (
	"fmt"
	"strings"
	"time"
)

// fmtValue renders a metric value with its family's unit: *_ns values
// print as durations, everything else as plain integers.
func fmtValue(family string, v int64) string {
	if strings.HasSuffix(family, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprint(v)
}

// String renders the snapshot as an aligned text table — the format the
// dvmsh \stats command prints. Counters and gauges show their value;
// histograms show count, sum, max, and approximate p50/p90/p99.
// Duration families (*_ns) render human-readable.
func (s Snapshot) String() string {
	rows := make([][]string, 0, len(s.Metrics)+1)
	rows = append(rows, []string{"metric", "kind", "count", "sum/value", "max", "p50", "p90", "p99"})
	for _, m := range s.Metrics {
		name := m.Name
		if m.Label != "" {
			name = fmt.Sprintf("%s{%s}", m.Name, m.Label)
		}
		switch m.Kind {
		case "histogram":
			rows = append(rows, []string{
				name, m.Kind, fmt.Sprint(m.Count),
				fmtValue(m.Name, m.Sum), fmtValue(m.Name, m.Max),
				fmtValue(m.Name, m.P50), fmtValue(m.Name, m.P90), fmtValue(m.Name, m.P99),
			})
		default:
			rows = append(rows, []string{name, m.Kind, "", fmtValue(m.Name, m.Value), "", "", "", ""})
		}
	}
	return renderAligned(rows)
}

// renderAligned renders rows as an aligned table with a rule under the
// header row (rows[0]).
func renderAligned(rows [][]string) string {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for r, row := range rows {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
		if r == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// fmtRate renders a per-second rate with its family's unit: for *_ns
// families the rate is time-per-second (shown as a duration per
// second), everything else as a scalar per second.
func fmtRate(family string, delta int64, dt time.Duration) string {
	if dt <= 0 {
		return "-"
	}
	perSec := float64(delta) / dt.Seconds()
	if strings.HasSuffix(family, "_ns") {
		return time.Duration(perSec).Round(time.Microsecond).String() + "/s"
	}
	return fmt.Sprintf("%.1f/s", perSec)
}

// RateString renders the change between two snapshots of the same
// registry over dt as an aligned table — the dvmsh \stats rate view.
// Counters and histograms show per-second rates of their value/count/
// sum since prev; gauges show the current value and its delta. Metrics
// absent from prev rate from zero; metrics with no change are skipped
// so the hot families stand out.
func RateString(prev, cur Snapshot, dt time.Duration) string {
	if dt <= 0 {
		dt = time.Second
	}
	prevBy := make(map[string]Metric, len(prev.Metrics))
	for _, m := range prev.Metrics {
		prevBy[m.Name+"\x00"+m.Label] = m
	}
	rows := [][]string{{"metric", "kind", "rate", "sum rate", "value"}}
	for _, m := range cur.Metrics {
		p := prevBy[m.Name+"\x00"+m.Label] // zero Metric when absent
		name := m.Name
		if m.Label != "" {
			name = fmt.Sprintf("%s{%s}", m.Name, m.Label)
		}
		switch m.Kind {
		case "histogram":
			if m.Count == p.Count && m.Sum == p.Sum {
				continue
			}
			rows = append(rows, []string{
				name, m.Kind,
				fmt.Sprintf("%.1f/s", float64(m.Count-p.Count)/dt.Seconds()),
				fmtRate(m.Name, m.Sum-p.Sum, dt),
				"",
			})
		case "gauge":
			if m.Value == p.Value {
				continue
			}
			rows = append(rows, []string{
				name, m.Kind, "", "",
				fmt.Sprintf("%s (%+d)", fmtValue(m.Name, m.Value), m.Value-p.Value),
			})
		default:
			if m.Value == p.Value {
				continue
			}
			rows = append(rows, []string{
				name, m.Kind, fmtRate(m.Name, m.Value-p.Value, dt), "", fmt.Sprint(m.Value),
			})
		}
	}
	if len(rows) == 1 {
		return "(no metric changed in the interval)\n"
	}
	return renderAligned(rows)
}
