// Package profparse is a minimal, stdlib-only reader for pprof
// protobuf profiles (the gzipped profile.proto format runtime/pprof
// writes). It decodes just enough — samples, their values, and their
// string labels — to answer attribution questions about the
// dvm_view/dvm_phase labels: the labeled-profile smoke test
// (TestLabeledCPUProfile) reads profiles through it, with no dependency
// on google.golang.org/protobuf.
package profparse

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Profile is the decoded subset of a pprof profile: every sample with
// its measured values and resolved string labels.
type Profile struct {
	// Samples holds every sample record in file order.
	Samples []Sample
}

// Sample is one pprof sample: the value vector (e.g. [count, nanos]
// for CPU profiles) plus its string labels.
type Sample struct {
	// Values is the sample's value per sample_type dimension.
	Values []int64
	// Labels maps label keys to string label values (numeric labels
	// are ignored — the dvm labels are all strings).
	Labels map[string]string
}

// rawLabel is a Label message before string-table resolution.
type rawLabel struct{ key, str int64 }

// rawSample is a Sample message before string-table resolution.
type rawSample struct {
	values []int64
	labels []rawLabel
}

// Parse decodes a pprof profile (gzipped or raw protobuf bytes).
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profparse: gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("profparse: gunzip: %w", err)
		}
		data = raw
	}
	var samples []rawSample
	var strtab []string
	err := eachField(data, func(field uint64, wire int, val uint64, chunk []byte) error {
		switch field {
		case 2: // repeated Sample sample
			s, err := parseSample(chunk)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 6: // repeated string string_table
			strtab = append(strtab, string(chunk))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &Profile{Samples: make([]Sample, 0, len(samples))}
	for _, rs := range samples {
		s := Sample{Values: rs.values}
		for _, l := range rs.labels {
			k, kOK := tabString(strtab, l.key)
			v, vOK := tabString(strtab, l.str)
			if !kOK || !vOK || k == "" || v == "" {
				continue
			}
			if s.Labels == nil {
				s.Labels = make(map[string]string, len(rs.labels))
			}
			s.Labels[k] = v
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// tabString resolves a string-table index, tolerating out-of-range
// indexes from truncated tables.
func tabString(tab []string, i int64) (string, bool) {
	if i < 0 || i >= int64(len(tab)) {
		return "", false
	}
	return tab[i], true
}

// parseSample decodes one Sample message: value = field 2 (repeated
// int64, possibly packed), label = field 3.
func parseSample(data []byte) (rawSample, error) {
	var s rawSample
	err := eachField(data, func(field uint64, wire int, val uint64, chunk []byte) error {
		switch field {
		case 2:
			if wire == 0 {
				s.values = append(s.values, int64(val))
				return nil
			}
			// Packed encoding: a length-delimited run of varints.
			return eachVarint(chunk, func(v uint64) {
				s.values = append(s.values, int64(v))
			})
		case 3:
			l, err := parseLabel(chunk)
			if err != nil {
				return err
			}
			s.labels = append(s.labels, l)
		}
		return nil
	})
	return s, err
}

// parseLabel decodes one Label message: key = field 1, str = field 2
// (both string-table indexes).
func parseLabel(data []byte) (rawLabel, error) {
	var l rawLabel
	err := eachField(data, func(field uint64, wire int, val uint64, chunk []byte) error {
		switch field {
		case 1:
			l.key = int64(val)
		case 2:
			l.str = int64(val)
		}
		return nil
	})
	return l, err
}

// eachField walks a protobuf message, invoking fn per field with the
// varint value (wire type 0) or the byte chunk (wire type 2). Fixed
// 64/32-bit fields are skipped.
func eachField(data []byte, fn func(field uint64, wire int, val uint64, chunk []byte) error) error {
	for len(data) > 0 {
		tag, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profparse: bad field tag")
		}
		data = data[n:]
		field, wire := tag>>3, int(tag&7)
		switch wire {
		case 0: // varint
			v, n := uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profparse: bad varint in field %d", field)
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(data) < 8 {
				return fmt.Errorf("profparse: truncated fixed64 in field %d", field)
			}
			data = data[8:]
		case 2: // length-delimited
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profparse: truncated chunk in field %d", field)
			}
			chunk := data[n : uint64(n)+l]
			data = data[uint64(n)+l:]
			if err := fn(field, wire, 0, chunk); err != nil {
				return err
			}
		case 5: // fixed32
			if len(data) < 4 {
				return fmt.Errorf("profparse: truncated fixed32 in field %d", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("profparse: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// eachVarint walks a packed varint run.
func eachVarint(data []byte, fn func(uint64)) error {
	for len(data) > 0 {
		v, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profparse: bad packed varint")
		}
		fn(v)
		data = data[n:]
	}
	return nil
}

// uvarint decodes an unsigned varint, returning the value and the
// number of bytes consumed (0 when truncated).
func uvarint(data []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(data) && i < 10; i++ {
		b := data[i]
		v |= uint64(b&0x7f) << (7 * uint(i))
		if b < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// LabelStats summarizes one profile's label attribution for a set of
// label keys: how many samples (by the value at index valueIdx, e.g. 1
// = CPU nanos) carry every key, and the per-value breakdown of one key.
type LabelStats struct {
	// Total is the summed sample value across the whole profile.
	Total int64
	// Labeled is the summed value of samples carrying all requested keys.
	Labeled int64
	// ByValue sums sample values per value of the breakdown key.
	ByValue map[string]int64
}

// Attribution sums the profile's samples at value index valueIdx,
// counting a sample as labeled when it carries every key in keys, and
// breaking totals down by the value of breakdownKey (samples without
// it land under ""). valueIdx clamps to the sample's last value.
func (p *Profile) Attribution(valueIdx int, breakdownKey string, keys ...string) LabelStats {
	st := LabelStats{ByValue: make(map[string]int64)}
	for _, s := range p.Samples {
		if len(s.Values) == 0 {
			continue
		}
		idx := valueIdx
		if idx >= len(s.Values) {
			idx = len(s.Values) - 1
		}
		v := s.Values[idx]
		st.Total += v
		all := true
		for _, k := range keys {
			if s.Labels[k] == "" {
				all = false
				break
			}
		}
		if all {
			st.Labeled += v
		}
		st.ByValue[s.Labels[breakdownKey]] += v
	}
	return st
}
