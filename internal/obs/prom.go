package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a Snapshot.
// Family names gain the PromPrefix; the repo's single "label" string
// is split into proper Prometheus labels by family shape (view, table,
// kind, view+phase). Histograms render their log2 buckets
// as cumulative `_bucket{le=...}` series ending in +Inf, plus `_sum`
// and `_count`. `# HELP` text comes from the doc-contract-backed help
// map (help.go); ValidateExposition is the strict parser the golden
// test and dvmstatsd test run over the output.

// PromPrefix namespaces every exposed family name ("view_downtime_ns"
// is exposed as "dvm_view_downtime_ns").
const PromPrefix = "dvm_"

// labelPair is one exposition label (name="value").
type labelPair struct{ name, value string }

// promLabels splits the registry's single label string into the
// family's Prometheus labels: phase-accounting labels become
// view+phase, lock families label the table, sql_stmt_ns labels the
// statement kind, and everything else with a non-empty label is
// view-scoped.
func promLabels(family, label string) []labelPair {
	if label == "" {
		return nil
	}
	switch family {
	case "lock_write_hold_ns", "lock_read_wait_ns":
		return []labelPair{{"table", label}}
	case "sql_stmt_ns":
		return []labelPair{{"kind", label}}
	case "phase_alloc_bytes":
		if i := strings.LastIndexByte(label, '/'); i >= 0 {
			return []labelPair{{"view", label[:i]}, {"phase", label[i+1:]}}
		}
	}
	return []labelPair{{"view", label}}
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels renders a label set as `{a="x",b="y"}` ("" when empty).
func renderLabels(ls []labelPair) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.name, escapeLabelValue(l.value))
	}
	b.WriteByte('}')
	return b.String()
}

// promType maps the registry kind string to the exposition TYPE.
func promType(kind string) string {
	switch kind {
	case "counter", "gauge", "histogram":
		return kind
	}
	return "untyped"
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Output is deterministic: the snapshot is already sorted by
// (family, label), and families are emitted as contiguous blocks in
// that order with HELP and TYPE ahead of the samples.
func WriteProm(w io.Writer, s Snapshot) error {
	for i := 0; i < len(s.Metrics); {
		j := i
		for j < len(s.Metrics) && s.Metrics[j].Name == s.Metrics[i].Name {
			j++
		}
		if err := writePromFamily(w, s.Metrics[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// writePromFamily emits one family block (metrics share a Name).
func writePromFamily(w io.Writer, ms []Metric) error {
	fam := ms[0].Name
	name := PromPrefix + fam
	help := HelpFor(fam)
	if help == "" {
		help = "Metric family " + fam + " (no registered help)."
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, promType(ms[0].Kind)); err != nil {
		return err
	}
	for _, m := range ms {
		ls := promLabels(fam, m.Label)
		if m.Kind != KindHistogram.String() {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(ls), m.Value); err != nil {
				return err
			}
			continue
		}
		// Histogram: cumulative buckets over the non-empty log2 buckets,
		// closed by +Inf. Prometheus reads le as ≤, so a bucket of the
		// integers [Lo, Hi) is exposed at its largest member.
		var cum uint64
		for _, b := range m.Buckets {
			cum += b.N
			bls := append(append([]labelPair{}, ls...), labelPair{"le", strconv.FormatInt(promLe(b), 10)})
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(bls), cum); err != nil {
				return err
			}
		}
		inf := append(append([]labelPair{}, ls...), labelPair{"le", "+Inf"})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(inf), m.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, renderLabels(ls), m.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(ls), m.Count); err != nil {
			return err
		}
	}
	return nil
}

// promLe is the largest value bucket b holds. The top bucket's Hi is
// math.MaxInt64 itself, a member, not a bound past it.
func promLe(b Bucket) int64 {
	if b.Hi == math.MaxInt64 {
		return b.Hi
	}
	return b.Hi - 1
}

// --- strict exposition validator -----------------------------------

// expoFamily tracks one family's validation state.
type expoFamily struct {
	help    bool
	typ     string
	samples int
	closed  bool
	// hist tracks per-series histogram state keyed by the label set
	// minus le; histSeries keeps insertion order for the final checks.
	hist       map[string]*expoHist
	histSeries []string
}

// expoHist is the bucket-monotonicity state of one histogram series.
type expoHist struct {
	lastLe  float64
	lastCum float64
	seenInf bool
	infCum  float64
	count   float64
	hasCnt  bool
}

// ValidateExposition parses Prometheus text exposition strictly,
// checking metric/label name grammar, HELP/TYPE presence and ordering
// ahead of samples, family-block contiguity, numeric sample values,
// and histogram discipline (strictly increasing le, non-decreasing
// cumulative counts, a closing +Inf bucket that matches _count). It
// returns the first violation found.
func ValidateExposition(data []byte) error {
	fams := map[string]*expoFamily{}
	var open string // family whose block is currently being read
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, fam, rest, err := parseExpoComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "" {
				continue // free-form comment
			}
			f, err := expoOpen(fams, &open, fam)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if f.samples > 0 {
				return fmt.Errorf("line %d: # %s %s after samples of the family", lineNo, kind, fam)
			}
			switch kind {
			case "HELP":
				if f.help {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, fam)
				}
				f.help = true
			case "TYPE":
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fam)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = rest
				default:
					return fmt.Errorf("line %d: invalid TYPE %q for %s", lineNo, rest, fam)
				}
			}
			continue
		}
		name, labels, value, err := parseExpoSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam, suffix := sampleFamily(fams, name)
		f, err := expoOpen(fams, &open, fam)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !f.help || f.typ == "" {
			return fmt.Errorf("line %d: sample %s before HELP and TYPE of %s", lineNo, name, fam)
		}
		f.samples++
		if f.typ == "histogram" {
			if err := checkHistSample(f, suffix, labels, value); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		} else if suffix != "" {
			return fmt.Errorf("line %d: suffix %q on non-histogram family %s", lineNo, suffix, fam)
		}
	}
	// Final per-family checks: histograms must have closed every series.
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if f.typ == "histogram" {
			for _, key := range f.histSeries {
				h := f.hist[key]
				if !h.seenInf {
					return fmt.Errorf("family %s series {%s}: no +Inf bucket", n, key)
				}
				if h.hasCnt && h.count != h.infCum {
					return fmt.Errorf("family %s series {%s}: _count %v != +Inf bucket %v", n, key, h.count, h.infCum)
				}
			}
		}
	}
	return nil
}

// expoOpen returns the family record, enforcing block contiguity: once
// a family's block has been left, it may not reopen.
func expoOpen(fams map[string]*expoFamily, open *string, fam string) (*expoFamily, error) {
	if err := checkMetricName(fam); err != nil {
		return nil, err
	}
	f, ok := fams[fam]
	if !ok {
		f = &expoFamily{hist: map[string]*expoHist{}}
		fams[fam] = f
	}
	if *open != fam {
		if prev, ok := fams[*open]; ok {
			prev.closed = true
		}
		if f.closed {
			return nil, fmt.Errorf("family %s reopened after its block ended", fam)
		}
		*open = fam
	}
	return f, nil
}

// parseExpoComment parses a # line, returning ("", ...) for free-form
// comments and (HELP|TYPE, family, rest) for the structured forms.
func parseExpoComment(line string) (kind, fam, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return "", "", "", nil
	}
	if len(fields) < 4 {
		return "", "", "", fmt.Errorf("malformed # %s line", fields[1])
	}
	return fields[1], fields[2], fields[3], nil
}

// sampleFamily maps a sample name to its family: for known histogram
// families the _bucket/_sum/_count suffix is stripped.
func sampleFamily(fams map[string]*expoFamily, name string) (fam, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, s)
		if base == name {
			continue
		}
		if f, ok := fams[base]; ok && f.typ == "histogram" {
			return base, s
		}
	}
	return name, ""
}

// checkMetricName enforces the metric name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces the label name grammar
// [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}

// parseExpoSample parses `name{labels} value` (labels optional) into
// its parts, validating the grammar of every name.
func parseExpoSample(line string) (name string, labels []labelPair, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		rest = rest[brace+1:]
		labels, rest, err = parseExpoLabels(rest)
		if err != nil {
			return "", nil, 0, err
		}
	} else {
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if err := checkMetricName(name); err != nil {
		return "", nil, 0, err
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; the repo never emits one but
	// the validator tolerates it.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("invalid sample value %q", rest)
	}
	return name, labels, v, nil
}

// parseExpoLabels parses the inside of a {...} label set, returning
// the remainder after the closing brace.
func parseExpoLabels(rest string) ([]labelPair, string, error) {
	var out []labelPair
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return out, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed label set")
		}
		lname := strings.TrimSpace(rest[:eq])
		if err := checkLabelName(lname); err != nil {
			return nil, "", err
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label %s: unquoted value", lname)
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			c := rest[0]
			if c == '\\' {
				if len(rest) < 2 {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch rest[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: invalid escape \\%c", lname, rest[1])
				}
				rest = rest[2:]
				continue
			}
			if c == '"' {
				rest = rest[1:]
				break
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		out = append(out, labelPair{lname, val.String()})
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// checkHistSample folds one histogram-family sample into the series
// state, enforcing bucket discipline as it goes.
func checkHistSample(f *expoFamily, suffix string, labels []labelPair, value float64) error {
	var le string
	var kept []string
	for _, l := range labels {
		if l.name == "le" {
			le = l.value
			continue
		}
		kept = append(kept, l.name+"="+l.value)
	}
	key := strings.Join(kept, ",")
	h, ok := f.hist[key]
	if !ok {
		h = &expoHist{lastLe: math.Inf(-1)}
		f.hist[key] = h
		f.histSeries = append(f.histSeries, key)
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("histogram bucket without le label")
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("invalid le value %q", le)
		}
		if h.seenInf {
			return fmt.Errorf("bucket after +Inf in series {%s}", key)
		}
		if bound <= h.lastLe {
			return fmt.Errorf("le %v not increasing after %v in series {%s}", bound, h.lastLe, key)
		}
		if value < h.lastCum {
			return fmt.Errorf("cumulative count %v decreased from %v in series {%s}", value, h.lastCum, key)
		}
		h.lastLe, h.lastCum = bound, value
		if math.IsInf(bound, 1) {
			h.seenInf = true
			h.infCum = value
		}
	case "_sum":
		// No constraint: sums of negative observations may be negative.
	case "_count":
		h.count = value
		h.hasCnt = true
		if h.seenInf && value != h.infCum {
			return fmt.Errorf("_count %v != +Inf bucket %v in series {%s}", value, h.infCum, key)
		}
	default:
		return fmt.Errorf("bare sample of histogram family (missing _bucket/_sum/_count)")
	}
	return nil
}
