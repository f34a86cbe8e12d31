package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteJSONGolden pins the -json output shape: stable field names,
// position-sorted order, and [] (not null) for zero findings.
func TestWriteJSONGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(fixturePrefix + "atomicfield")
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := Select("atomic-discipline")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers([]*Package{pkg}, analyzers, DefaultConfig())
	if len(findings) == 0 {
		t.Fatal("atomicfield fixture produced no findings")
	}
	for i := range findings {
		findings[i].Pos.Filename = filepath.Base(findings[i].Pos.Filename)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	goldenPath := filepath.Join("testdata", "json.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestWriteJSONGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("json output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The field-name contract, independent of the golden bytes.
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	for _, k := range []string{"file", "line", "col", "check", "message"} {
		if _, ok := raw[0][k]; !ok {
			t.Errorf("finding object missing field %q", k)
		}
	}
}

// TestWriteJSONEmpty: zero findings must render as an empty array.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Fatalf("WriteJSON(nil) = %q; want []", s)
	}
}
