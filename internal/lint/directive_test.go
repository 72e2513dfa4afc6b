package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	tests := []struct {
		body    string // text after "//lint:"
		name    string // expected analyzer, "" if malformed
		errPart string // expected substring of the error message
	}{
		{body: "allow maprange(keys sorted below)", name: "maprange"},
		{body: "allow goleak(coroutine handoff)", name: "goleak"},
		{body: "allow wallclock( padded reason )", name: "wallclock"},
		{body: "allow globalrand(x)", name: "globalrand"},

		{body: "deny maprange(no)", errPart: "unknown verb"},
		{body: "allowmaprange(no)", errPart: "unknown verb"},
		{body: "allow", errPart: "want //lint:allow analyzer(reason)"},
		{body: "allow maprange", errPart: "got no (reason)"},
		{body: "allow maprange()", errPart: "empty reason"},
		{body: "allow maprange(   )", errPart: "empty reason"},
		{body: "allow maprange(unclosed", errPart: "missing closing parenthesis"},
		{body: "allow maprange(reason) trailing", errPart: "missing closing parenthesis"},
		{body: "allow nosuchpass(reason)", errPart: `unknown analyzer "nosuchpass"`},
		{body: "allow (reason)", errPart: `unknown analyzer ""`},
	}
	for _, tt := range tests {
		name, errmsg := parseAllow(tt.body)
		if tt.errPart == "" {
			if errmsg != "" || name != tt.name {
				t.Errorf("parseAllow(%q) = (%q, %q), want (%q, ok)", tt.body, name, errmsg, tt.name)
			}
			continue
		}
		if errmsg == "" {
			t.Errorf("parseAllow(%q) accepted a malformed directive (name %q)", tt.body, name)
			continue
		}
		if !strings.Contains(errmsg, tt.errPart) {
			t.Errorf("parseAllow(%q) error %q does not mention %q", tt.body, errmsg, tt.errPart)
		}
	}
}

// checkSource type-checks one in-memory file under a deterministic
// path and returns the suite's diagnostics. The sources must not
// import anything, so no importer is needed.
func checkSource(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return CheckPackage(sourcePackage(t, src), Analyzers())
}

// sourcePackage type-checks one in-memory file under a deterministic
// path.
func sourcePackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{}
	tpkg, err := conf.Check(detPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: detPath, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// TestMalformedDirectiveDoesNotSuppress is the contract the satellite
// task names: a malformed //lint:allow is reported as an error AND the
// finding it sat next to still fires.
func TestMalformedDirectiveDoesNotSuppress(t *testing.T) {
	diags := checkSource(t, `package p

var m = map[int]int{1: 1}

func f() int {
	n := 0
	//lint:allow maprange()
	for _, v := range m {
		n += v
	}
	return n
}
`)
	var haveDirectiveErr, haveMapRange bool
	for _, d := range diags {
		switch {
		case d.Analyzer == directiveName && strings.Contains(d.Message, "empty reason") && d.Pos.Line == 7:
			haveDirectiveErr = true
		case d.Analyzer == "maprange" && d.Pos.Line == 8:
			haveMapRange = true
		}
	}
	if !haveDirectiveErr {
		t.Errorf("malformed directive not reported as an error; got %v", diags)
	}
	if !haveMapRange {
		t.Errorf("malformed directive silently suppressed the maprange finding; got %v", diags)
	}
}

// TestWellFormedDirectiveSuppressesOnlyItsAnalyzer: an allow names one
// analyzer; findings from other analyzers on the same line survive, and
// the misdirected allow is reported stale.
func TestWellFormedDirectiveSuppressesOnlyItsAnalyzer(t *testing.T) {
	diags := checkSource(t, `package p

func f() {
	//lint:allow goleak(handoff fixture)
	ch := make(chan int)
	//lint:allow maprange(wrong analyzer on purpose)
	go func() { close(ch) }()
}
`)
	var goleakAt5, goleakAt7, staleAt6 bool
	for _, d := range diags {
		if d.Analyzer == directiveName {
			if d.Pos.Line == 6 && strings.Contains(d.Message, "stale //lint:allow maprange") {
				staleAt6 = true
			} else {
				t.Errorf("unexpected directive error: %s", d)
			}
		}
		if d.Analyzer == "goleak" && d.Pos.Line == 5 {
			goleakAt5 = true
		}
		if d.Analyzer == "goleak" && d.Pos.Line == 7 {
			goleakAt7 = true
		}
	}
	if goleakAt5 {
		t.Error("allow goleak did not suppress the make(chan) finding on the next line")
	}
	if !goleakAt7 {
		t.Error("allow maprange suppressed a goleak finding; directives must be analyzer-specific")
	}
	if !staleAt6 {
		t.Errorf("allow maprange with no maprange finding not reported stale; got %v", diags)
	}
}

// TestStaleDirectiveNeedsItsAnalyzer: an allow is judged stale only by
// a run of its own analyzer; a run without it has no evidence either
// way.
func TestStaleDirectiveNeedsItsAnalyzer(t *testing.T) {
	const src = `package p

func f() []int {
	//lint:allow maprange(nothing here ranges over a map)
	return nil
}
`
	diags := checkSource(t, src)
	if len(diags) != 1 || diags[0].Analyzer != directiveName || diags[0].Pos.Line != 4 ||
		!strings.Contains(diags[0].Message, "stale") {
		t.Errorf("full suite: got %v, want one stale directive error on line 4", diags)
	}
	if diags := CheckPackage(sourcePackage(t, src), []*Analyzer{GoLeak}); len(diags) != 0 {
		t.Errorf("goleak-only run judged a maprange allow: %v", diags)
	}
}

// TestDirectiveAppliesToOwnAndNextLine: trailing placement works too.
func TestDirectiveAppliesToOwnAndNextLine(t *testing.T) {
	diags := checkSource(t, `package p

var m = map[int]int{1: 1}

func f() int {
	n := 0
	for _, v := range m { //lint:allow maprange(xor-sum is commutative)
		n ^= v
	}
	return n
}
`)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
