package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

const fixturePrefix = "dvm/internal/lint/testdata/src/"

// fixtureCases drives the per-analyzer self-tests: each fixture
// package is analyzed by the named checks under a config that maps the
// repo-specific roles onto the fixture.
var fixtureCases = []struct {
	dir    string
	checks string
	cfg    func(Config) Config
}{
	{
		dir:    "goctx",
		checks: "single-writer",
		cfg: func(c Config) Config {
			c.CorePkg = fixturePrefix + "goctx"
			return c
		},
	},
	{
		dir:    "escape",
		checks: "shared-state-escape,single-writer",
		cfg: func(c Config) Config {
			c.CorePkg = fixturePrefix + "escape"
			return c
		},
	},
	{
		dir:    "atomicfield",
		checks: "atomic-discipline",
		cfg:    func(c Config) Config { return c },
	},
	{
		dir:    "maporder",
		checks: "nondeterministic-iteration",
		cfg: func(c Config) Config {
			c.OrderedPkgs = append(c.OrderedPkgs, fixturePrefix+"maporder")
			return c
		},
	},
	{
		dir:    "docmiss",
		checks: "doc-comment",
		cfg: func(c Config) Config {
			c.DocPkgs = []string{fixturePrefix + "docmiss"}
			return c
		},
	},
}

func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := loader.Load(fixturePrefix + tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			analyzers, err := Select(tc.checks)
			if err != nil {
				t.Fatal(err)
			}
			findings := RunAnalyzers([]*Package{pkg}, analyzers, tc.cfg(DefaultConfig()))
			if len(findings) == 0 {
				t.Fatalf("fixture %s produced no findings; the analyzer is not firing", tc.dir)
			}
			var sb strings.Builder
			for _, f := range findings {
				tag := ""
				if f.Warning {
					tag = "warning: "
				}
				fmt.Fprintf(&sb, "%s:%d: [%s] %s%s\n", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check, tag, f.Message)
			}
			got := sb.String()

			goldenPath := filepath.Join("testdata", "src", tc.dir, "expect.golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestFixtures -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", tc.dir, got, want)
			}
		})
	}
}

// TestAnalyzerFixtureMatrix runs every analyzer over every fixture,
// under the fixture's config, and pins which analyzers fire on which
// line: the evidence of what each analyzer catches that no other one
// does, and of every overlap. A seeded bug that stops being reported,
// or a new cross-hit, shows up as a diff of testdata/matrix.golden.
func TestAnalyzerFixtureMatrix(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		at     string
		line   int
		checks []string
	}
	var rows []row
	for _, tc := range fixtureCases {
		pkg, err := loader.Load(fixturePrefix + tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		byLine := map[string]*row{}
		for _, f := range RunAnalyzers([]*Package{pkg}, All(), tc.cfg(DefaultConfig())) {
			at := tc.dir + "/" + filepath.Base(f.Pos.Filename)
			key := fmt.Sprintf("%s:%d", at, f.Pos.Line)
			r := byLine[key]
			if r == nil {
				r = &row{at: at, line: f.Pos.Line}
				byLine[key] = r
			}
			if !slices.Contains(r.checks, f.Check) {
				r.checks = append(r.checks, f.Check)
			}
		}
		for _, r := range byLine {
			slices.Sort(r.checks)
			rows = append(rows, *r)
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if a.at != b.at {
			return strings.Compare(a.at, b.at)
		}
		return a.line - b.line
	})
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s:%d: %s\n", r.at, r.line, strings.Join(r.checks, ", "))
	}
	got := sb.String()
	goldenPath := filepath.Join("testdata", "matrix.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestAnalyzerFixtureMatrix -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("analyzer × fixture matrix changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestModuleIsLintClean runs the full analyzer suite over the whole
// module — the same gate `go run ./cmd/dvmlint ./...` applies — so a
// regression in lint discipline fails `go test ./...` too.
func TestModuleIsLintClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers(pkgs, All(), DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSelect covers the check-selection surface the CLI exposes.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("doc-comment, single-writer")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select two = %v (len %d); want 2", err, len(two))
	}
	if _, err := Select("no-such-check"); err == nil {
		t.Fatal("Select(no-such-check) should fail")
	}
}
