package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// loadFixture type-checks one testdata package through a shared loader
// (the module packages it imports are checked once and cached).
func loadFixture(t *testing.T, l *Loader, dir string) *CheckedPackage {
	t.Helper()
	cp, err := l.LoadDir("testdata/" + dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return cp
}

// sharedLoader is the one loader the package's tests share. Loading
// type-checks the module and the stdlib from source, and a loader keeps
// both, so the test binary pays for it once, not once per test. The
// tests run sequentially; a Loader is not safe for concurrent use.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// TestAnalyzersFireOnBadFixtures pins each known-bad fixture's findings
// under the full suite: exactly these line:col positions, in sorted
// order, each carrying the fixture's rule. A missing, moved, or
// duplicated finding fails, so a change to shared plumbing (reporting,
// dedupe, the dataflow solver) cannot silently shift any rule.
func TestAnalyzersFireOnBadFixtures(t *testing.T) {
	l := newTestLoader(t)
	cases := []struct {
		rule string
		dir  string
		at   []string // line:col of every finding, sorted
	}{
		{"nodeterm", "nodeterm_bad", []string{"14:29", "17:30", "21:42", "21:51", "28:9"}},
		{"floateq", "floateq_bad", []string{"6:37", "11:38", "14:40", "18:2"}},
		{"metricname", "metricname_bad", []string{"13:12", "14:12", "15:10", "16:14", "18:12"}},
		{"httpenvelope", "httpenvelope_bad", []string{"13:3", "16:2"}},
		{"nakedgo", "nakedgo_bad", []string{"11:2"}},
		{"unitsafe", "unitsafe_bad", []string{"15:10", "15:13", "21:9", "21:22", "27:9", "33:6", "38:15", "38:33"}},
		{"ctxflow", "ctxflow_bad", []string{"12:12", "18:13", "23:13", "24:13", "28:11", "30:2", "39:11", "41:2", "53:9"}},
		{"atomicpub", "atomicpub_bad", []string{"20:2", "26:2", "34:2", "40:2", "56:2"}},
		{"lockdiscipline", "lockdiscipline_bad", []string{"21:2", "34:7", "42:2", "51:12", "60:2", "69:2"}},
		{"ctxflow", "ctxflow_callee_bad", []string{"38:9", "46:9"}},
		{"lockdiscipline", "lockdiscipline_callee_bad", []string{"37:2", "45:9"}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.dir, "_bad"), func(t *testing.T) {
			cp := loadFixture(t, l, tc.dir)
			findings := Run(Suite(), []*CheckedPackage{cp})
			at := make([]string, len(findings))
			for i, f := range findings {
				at[i] = fmt.Sprintf("%d:%d", f.Pos.Line, f.Pos.Column)
				if f.Rule != tc.rule {
					t.Errorf("unexpected rule %q in finding %s (fixture targets %q)", f.Rule, f.String(), tc.rule)
				}
			}
			if got, want := strings.Join(at, " "), strings.Join(tc.at, " "); got != want {
				t.Errorf("finding positions = [%s], want [%s]: %v", got, want, findings)
			}
		})
	}
}

// TestAnalyzersQuietOnGoodFixtures asserts the full suite stays silent
// on each known-good fixture.
func TestAnalyzersQuietOnGoodFixtures(t *testing.T) {
	l := newTestLoader(t)
	dirs := []string{
		"nodeterm_good",
		"floateq_good",
		"metricname_good",
		"httpenvelope_good",
		"nakedgo_good",
		"unitsafe_good",
		"ctxflow_good",
		"atomicpub_good",
		"lockdiscipline_good",
		"ctxflow_callee_good",
		"lockdiscipline_callee_good",
	}
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			cp := loadFixture(t, l, dir)
			if findings := Run(Suite(), []*CheckedPackage{cp}); len(findings) != 0 {
				t.Fatalf("want 0 findings, got %d: %v", len(findings), findings)
			}
		})
	}
}

// TestMalformedAllowsAreFindings asserts that a reason-less //lint:allow,
// one naming an unknown rule, and a well-formed one that suppresses
// nothing (stale) are themselves reported, and that a malformed
// directive suppresses nothing: the floateq findings it tried to hide
// must surface alongside the lintallow findings.
func TestMalformedAllowsAreFindings(t *testing.T) {
	l := newTestLoader(t)
	cp := loadFixture(t, l, "lintallow_bad")
	findings := Run(Suite(), []*CheckedPackage{cp})
	byRule := map[string]int{}
	for _, f := range findings {
		byRule[f.Rule]++
	}
	if byRule["lintallow"] != 3 {
		t.Errorf("want 3 lintallow findings (missing reason, unknown rule, stale waiver), got %d: %v", byRule["lintallow"], findings)
	}
	if byRule["floateq"] != 2 {
		t.Errorf("malformed allows must not suppress: want 2 floateq findings, got %d: %v", byRule["floateq"], findings)
	}
	var sawReason, sawUnknown, sawStale bool
	for _, f := range findings {
		if f.Rule != "lintallow" {
			continue
		}
		if strings.Contains(f.Msg, "needs a reason") {
			sawReason = true
		}
		if strings.Contains(f.Msg, "unknown rule") {
			sawUnknown = true
		}
		if strings.Contains(f.Msg, "stale waiver") {
			sawStale = true
		}
	}
	if !sawReason || !sawUnknown || !sawStale {
		t.Errorf("want missing-reason, unknown-rule, and stale-waiver messages, got %v", findings)
	}
}

// TestStaleWaiverSkippedForInactiveRules asserts -rule style subset
// runs do not flag waivers for rules that did not run: a floateq
// waiver is only judged when floateq itself is active.
func TestStaleWaiverSkippedForInactiveRules(t *testing.T) {
	l := newTestLoader(t)
	cp := loadFixture(t, l, "lintallow_bad")
	findings := Run([]*Analyzer{Nakedgo}, []*CheckedPackage{cp})
	for _, f := range findings {
		if strings.Contains(f.Msg, "stale waiver") {
			t.Errorf("stale-waiver finding for an inactive rule: %v", f)
		}
	}
}

// TestModuleIsClean is the dogfood gate: the repo's own packages must
// pass the full suite. It mirrors what `go run ./cmd/celia-lint ./...`
// enforces in CI, so a regression fails tier-1 tests too.
func TestModuleIsClean(t *testing.T) {
	l := newTestLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if findings := Run(Suite(), pkgs); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("%s", f.String())
		}
	}
}

func TestFindingString(t *testing.T) {
	cp := &CheckedPackage{}
	_ = cp // silence unused in case of refactors; Finding formatting is position-only
	f := Finding{Rule: "nodeterm", Msg: "call to time.Now"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 12
	f.Pos.Column = 3
	if got, want := f.String(), "x.go:12:3: [nodeterm] call to time.Now"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCalleeDisplay pins how findings and why-chains name a callee:
// the module path is dropped, a method's receiver parentheses and
// pointer star are kept.
func TestCalleeDisplay(t *testing.T) {
	pkg := types.NewPackage("repro/internal/serving", "serving")
	recv := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "Frontdoor", nil), types.NewStruct(nil, nil), nil)
	fn := func(recv types.Type, name string) *types.Func {
		var rv *types.Var
		if recv != nil {
			rv = types.NewVar(token.NoPos, pkg, "f", recv)
		}
		return types.NewFunc(token.NoPos, pkg, name, types.NewSignatureType(rv, nil, nil, nil, nil, false))
	}
	cases := []struct {
		fn   *types.Func
		want string
	}{
		{fn(nil, "NewFrontdoor"), "serving.NewFrontdoor"},
		{fn(recv, "Apps"), "(serving.Frontdoor).Apps"},
		{fn(types.NewPointer(recv), "refreshIndexGauges"), "(*serving.Frontdoor).refreshIndexGauges"},
	}
	for _, tc := range cases {
		if got := calleeDisplay(tc.fn); got != tc.want {
			t.Errorf("calleeDisplay(%s) = %q, want %q", tc.fn.FullName(), got, tc.want)
		}
	}
}

func TestPathWithin(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"repro/internal/des", "internal/des", true},
		{"repro/internal/des/lintfixture", "internal/des", true},
		{"repro/internal/design", "internal/des", false},
		{"repro/internal/faults/risk", "internal/faults", true},
		{"repro/cmd/celia-lint", "internal/des", false},
		{"internal/des", "internal/des", true},
	}
	for _, tc := range cases {
		if got := pathWithin(tc.path, tc.prefix); got != tc.want {
			t.Errorf("pathWithin(%q, %q) = %v, want %v", tc.path, tc.prefix, got, tc.want)
		}
	}
}
