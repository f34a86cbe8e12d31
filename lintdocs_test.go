package dvm_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dvm/internal/lint"
)

// docAnalyzerRe extracts the analyzer name from one table row of the
// catalogue in docs/static-analysis.md: "| `check-name` | ...".
var docAnalyzerRe = regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\|")

// docHeadingRe matches a per-analyzer section heading: "### `name`".
var docHeadingRe = regexp.MustCompile("(?m)^### `([a-z0-9-]+)`")

// TestLintDocsMatchRegistry keeps docs/static-analysis.md 1:1 with the
// analyzer registry, in both directions and at both granularities: the
// catalogue table between the analyzers:begin/end markers, and a
// "### `name`" section per analyzer. Registering an analyzer without
// documenting it, or documenting one that no longer runs, fails here —
// the same contract obsdocs_test.go enforces for metric families.
func TestLintDocsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile("docs/static-analysis.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	begin := strings.Index(text, "<!-- analyzers:begin -->")
	end := strings.Index(text, "<!-- analyzers:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("docs/static-analysis.md: analyzers:begin/end markers missing or out of order")
	}
	tabled := map[string]bool{}
	for _, m := range docAnalyzerRe.FindAllStringSubmatch(text[begin:end], -1) {
		tabled[m[1]] = true
	}
	if len(tabled) == 0 {
		t.Fatal("docs/static-analysis.md: no analyzer rows found between markers")
	}

	sectioned := map[string]bool{}
	for _, m := range docHeadingRe.FindAllStringSubmatch(text, -1) {
		sectioned[m[1]] = true
	}

	registered := map[string]bool{}
	for _, a := range lint.All() {
		registered[a.Name] = true
		if !tabled[a.Name] {
			t.Errorf("analyzer %q is registered but missing from the catalogue table", a.Name)
		}
		if !sectioned[a.Name] {
			t.Errorf("analyzer %q is registered but has no \"### `%s`\" section", a.Name, a.Name)
		}
	}
	for name := range tabled {
		if !registered[name] {
			t.Errorf("catalogue table documents %q but no such analyzer is registered", name)
		}
	}
	for name := range sectioned {
		if !registered[name] {
			t.Errorf("docs/static-analysis.md has a section for %q but no such analyzer is registered", name)
		}
	}
}

// mutantCheckRe extracts the analyzers a kept mutant's check line runs:
// "# check: go run ./cmd/dvmlint -checks a,b ./...".
var mutantCheckRe = regexp.MustCompile(`(?m)^# check: .*dvmlint.* -checks[ =]([a-z0-9,-]+)`)

// TestEveryAnalyzerHasAMutant: an analyzer stays in the registry only
// while a kept mutant (testdata/mutants, run by scripts/mutants.sh)
// seeds a bug that it alone catches, so every registered analyzer must
// be the check of at least one mutant. An analyzer that no mutant
// names has shown no bug that the build, vet and the tests miss. And
// every analyzer a check names must be registered: dvmlint exits 2 on
// an unknown -checks name, so a mutant whose check still names a
// deleted analyzer would read as killed without being checked.
func TestEveryAnalyzerHasAMutant(t *testing.T) {
	patches, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.patch"))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, a := range lint.All() {
		registered[a.Name] = true
	}
	named := map[string]bool{}
	for _, p := range patches {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mutantCheckRe.FindAllStringSubmatch(string(data), -1) {
			for _, name := range strings.Split(m[1], ",") {
				named[name] = true
				if !registered[name] {
					t.Errorf("%s: its check names analyzer %q, which is not registered", p, name)
				}
			}
		}
	}
	for _, a := range lint.All() {
		if !named[a.Name] {
			t.Errorf("analyzer %q is the check of no mutant in testdata/mutants", a.Name)
		}
	}
}
