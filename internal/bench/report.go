// Package bench implements the experiment harness: one function per
// experiment in DESIGN.md's per-experiment index (E1–E9), each returning
// a Report that cmd/dvmbench prints. The experiments reproduce the
// paper's worked examples (state bug), its qualitative claims
// (per-transaction overhead, view downtime, Policies 1/2), and the
// ablations DESIGN.md calls out (weak vs strong minimality, incremental
// vs recompute).
package bench

import (
	"fmt"
	"strings"
	"time"

	"dvm/internal/obs"
)

// Report is one experiment's output table.
type Report struct {
	ID     string
	Title  string
	Notes  string   // expected shape, caveats
	Header []string // column names
	Rows   [][]string
	// Phases carries per-phase timing distributions pulled from the obs
	// histograms of the experiment's manager(s) — makesafe, propagate,
	// refresh, downtime — rendered after the table.
	Phases []PhaseStat `json:",omitempty"`
}

// PhaseStat is one maintenance phase's timing distribution, extracted
// from an obs histogram (durations in nanoseconds when JSON-encoded).
type PhaseStat struct {
	Name  string
	Count int64
	Sum   time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// PhasesFrom extracts the named histogram families from a registry as
// PhaseStats, skipping empty histograms. A non-empty prefix labels each
// entry (useful when one report spans several managers).
func PhasesFrom(r *obs.Registry, prefix string, families ...string) []PhaseStat {
	snap := r.Snapshot()
	var out []PhaseStat
	for _, fam := range families {
		for _, m := range snap.Family(fam) {
			if m.Kind != "histogram" || m.Count == 0 {
				continue
			}
			name := m.Name
			if m.Label != "" {
				name = fmt.Sprintf("%s{%s}", m.Name, m.Label)
			}
			if prefix != "" {
				name = prefix + " " + name
			}
			out = append(out, PhaseStat{
				Name:  name,
				Count: m.Count,
				Sum:   time.Duration(m.Sum),
				Max:   time.Duration(m.Max),
				P50:   time.Duration(m.P50),
				P90:   time.Duration(m.P90),
				P99:   time.Duration(m.P99),
			})
		}
	}
	return out
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	if len(r.Phases) > 0 {
		sb.WriteString("phase timings (obs spans):\n")
		nameW := len("phase")
		for _, p := range r.Phases {
			if len(p.Name) > nameW {
				nameW = len(p.Name)
			}
		}
		rd := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
		for _, p := range r.Phases {
			fmt.Fprintf(&sb, "  %-*s  n=%-4d  p50=%-8s  p90=%-8s  p99=%-8s  max=%-8s  total=%s\n",
				nameW, p.Name, p.Count, rd(p.P50), rd(p.P90), rd(p.P99), rd(p.Max), rd(p.Sum))
		}
	}
	if r.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", r.Notes)
	}
	return sb.String()
}

// Experiment names one runnable experiment.
type Experiment struct {
	ID  string
	Run func() (*Report, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Run: E1StateBugJoin},
		{ID: "e2", Run: E2StateBugDiff},
		{ID: "e3", Run: E3Overhead},
		{ID: "e4", Run: E4Downtime},
		{ID: "e5", Run: E5PropagationSweep},
		{ID: "e6", Run: E6RestrictedClass},
		{ID: "e7", Run: E7Minimality},
		{ID: "e8", Run: E8IncrVsRecompute},
		{ID: "e9", Run: E9Batching},
		{ID: "e10", Run: E10SharedLog},
		{ID: "e11", Run: E11ReaderBlocking},
		{ID: "e12", Run: E12SelfMaintainability},
		{ID: "e13", Run: E13RelevantUpdates},
		{ID: "e14", Run: E14FreshQueries},
		{ID: "day", Run: RetailDay},
	}
}
