package report_test

import (
	"go/token"
	"strings"
	"testing"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/report"
)

// sample is a deliberately shuffled multi-analyzer finding set: two
// analyzers on the same line, two files, duplicate keys for the
// baseline counter. Sorting must order it by (file, line, column,
// analyzer, message).
func sample() []analysis.Finding {
	mk := func(an, file string, line, col int, msg string) analysis.Finding {
		return analysis.Finding{
			Analyzer: an,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}
	return []analysis.Finding{
		mk("poolcheck", "internal/link/link.go", 40, 2, "use of packet p after it was released to the pool at internal/link/link.go:38:2"),
		mk("creditflow", "internal/core/core.go", 12, 5, "credit decrement does not reach a credit sink on every path to return (retire it, or annotate //lint:creditsink)"),
		mk("detmap", "internal/link/link.go", 40, 2, "map iteration order is nondeterministic"),
		mk("fsmcheck", "internal/link/link.go", 7, 1, "undeclared state transition down -> up on field state (//lint:fsm allows no such edge; annotate //lint:fsmtrans if deliberate)"),
		mk("schedcheck", "internal/core/core.go", 12, 5, "negative constant delay -1"),
	}
}

const goldenText = `internal/core/core.go:12:5: creditflow: credit decrement does not reach a credit sink on every path to return (retire it, or annotate //lint:creditsink)
internal/core/core.go:12:5: schedcheck: negative constant delay -1
internal/link/link.go:7:1: fsmcheck: undeclared state transition down -> up on field state (//lint:fsm allows no such edge; annotate //lint:fsmtrans if deliberate)
internal/link/link.go:40:2: detmap: map iteration order is nondeterministic
internal/link/link.go:40:2: poolcheck: use of packet p after it was released to the pool at internal/link/link.go:38:2
`

func TestSortAndTextGolden(t *testing.T) {
	fs := sample()
	report.Sort(fs)
	var sb strings.Builder
	if err := report.WriteText(&sb, fs); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenText {
		t.Errorf("text output mismatch:\n got:\n%s\nwant:\n%s", sb.String(), goldenText)
	}
}

func TestSortIsDeterministic(t *testing.T) {
	a, b := sample(), sample()
	// Reverse one copy: sorting must converge to the same order.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	report.Sort(a)
	report.Sort(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJSONGolden(t *testing.T) {
	fs := sample()
	report.Sort(fs)
	var sb strings.Builder
	if err := report.WriteJSON(&sb, fs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"analyzer": "creditflow"`,
		`"file": "internal/link/link.go"`,
		`"line": 40`,
		`"column": 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(out, "[\n") {
		t.Errorf("JSON output should be an array:\n%s", out)
	}
	var empty strings.Builder
	if err := report.WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "[]" {
		t.Errorf("empty finding set must encode as [], got %q", empty.String())
	}
}

func TestSARIFGolden(t *testing.T) {
	fs := sample()
	report.Sort(fs)
	analyzers := []*analysis.Analyzer{
		{Name: "detmap", Doc: "no unordered map iteration"},
		{Name: "poolcheck", Doc: "no use after Pool.Put"},
	}
	var sb strings.Builder
	if err := report.WriteSARIF(&sb, fs, analyzers); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"name": "mnlint"`,
		`"id": "detmap"`,
		`"ruleId": "fsmcheck"`,
		`"uri": "internal/link/link.go"`,
		`"startLine": 7`,
		`"level": "error"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SARIF output missing %s:\n%s", want, out)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	fs := sample()
	report.Sort(fs)
	b := report.NewBaseline(fs)
	if left := b.Filter(fs); len(left) != 0 {
		t.Errorf("baseline built from findings must absorb all of them, left %v", left)
	}
	// A fresh finding with a new message escapes the filter.
	novel := analysis.Finding{
		Analyzer: "detmap",
		Pos:      token.Position{Filename: "internal/link/link.go", Line: 99, Column: 1},
		Message:  "a brand new finding",
	}
	if left := b.Filter(append(fs, novel)); len(left) != 1 || left[0] != novel {
		t.Errorf("novel finding must escape the baseline, got %v", left)
	}
	// Line drift does not resurrect a baselined finding...
	drifted := fs[0]
	drifted.Pos.Line += 3
	if left := b.Filter([]analysis.Finding{drifted}); len(left) != 0 {
		t.Errorf("line drift must not resurrect a baselined finding, got %v", left)
	}
	// ...but a second occurrence beyond the count does escape.
	if left := b.Filter([]analysis.Finding{fs[0], drifted}); len(left) != 1 {
		t.Errorf("count-exceeding duplicate must escape the baseline, got %v", left)
	}
	// Round-trip through the file format.
	path := t.TempDir() + "/baseline.json"
	if err := report.WriteBaselineFile(path, b); err != nil {
		t.Fatal(err)
	}
	b2, err := report.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if left := b2.Filter(fs); len(left) != 0 {
		t.Errorf("reloaded baseline must absorb the original findings, left %v", left)
	}
}

func TestRelativize(t *testing.T) {
	fs := []analysis.Finding{
		{Analyzer: "detmap", Pos: token.Position{Filename: "/work/repo/internal/a.go", Line: 1, Column: 1}},
		{Analyzer: "detmap", Pos: token.Position{Filename: "/elsewhere/b.go", Line: 1, Column: 1}},
	}
	report.Relativize(fs, "/work/repo")
	if fs[0].Pos.Filename != "internal/a.go" {
		t.Errorf("in-dir path not relativized: %q", fs[0].Pos.Filename)
	}
	if fs[1].Pos.Filename != "/elsewhere/b.go" {
		t.Errorf("out-of-dir path must be untouched: %q", fs[1].Pos.Filename)
	}
}
