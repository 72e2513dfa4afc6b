package lint

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The testdata runner mirrors x/tools' analysistest: each testdata
// package is parsed and type-checked, one analyzer runs over it, and
// every diagnostic must be claimed by a `// want` comment with a
// backquoted regexp on the same line (and vice versa). A line whose
// trailing comment must stay intact (a //lint:allow directive) carries
// its expectation in a block comment instead: /* want `re` */.

// detPath is the deterministic-core import path testdata packages are
// checked under; hostPath is a host-side path outside the contract.
const (
	detPath  = "repro/internal/kernel"
	hostPath = "repro/cmd/uschedsim"
)

func loadTestdata(t *testing.T, dir, pkgPath string) *Package {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no testdata files in %s: %v", dir, err)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := typeCheck(fset, imp, pkgPath, "", names)
	if err != nil {
		t.Fatalf("type-checking testdata/%s: %v", dir, err)
	}
	return pkg
}

// wantExpectation is one unclaimed `// want` regexp.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	claimed bool
}

var (
	wantPattern = regexp.MustCompile("`([^`]+)`")
	wantMarker  = regexp.MustCompile(`(//|/\*) want `)
)

func parseWants(t *testing.T, files []string) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			loc := wantMarker.FindStringIndex(line)
			if loc == nil {
				continue
			}
			ms := wantPattern.FindAllStringSubmatch(line[loc[1]:], -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: // want comment with no backquoted pattern", name, i+1)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
				}
				wants = append(wants, &wantExpectation{file: name, line: i + 1, re: re, raw: m[1]})
			}
		}
	}
	return wants
}

// checkTestdata runs analyzers over testdata/dir under pkgPath and
// matches diagnostics against the want comments.
func checkTestdata(t *testing.T, dir, pkgPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadTestdata(t, dir, pkgPath)
	diags := CheckPackage(pkg, analyzers)
	var files []string
	for _, f := range pkg.Files {
		files = append(files, pkg.Fset.Position(f.Pos()).Filename)
	}
	wants := parseWants(t, files)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.claimed && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.claimed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.claimed {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.raw)
		}
	}
}

func TestMapRange(t *testing.T)   { checkTestdata(t, "maprange", detPath, []*Analyzer{MapRange}) }
func TestWallClock(t *testing.T)  { checkTestdata(t, "wallclock", detPath, []*Analyzer{WallClock}) }
func TestGlobalRand(t *testing.T) { checkTestdata(t, "globalrand", detPath, []*Analyzer{GlobalRand}) }
func TestGoLeak(t *testing.T)     { checkTestdata(t, "goleak", detPath, []*Analyzer{GoLeak}) }

// TestNonDeterministicPackagesAreExempt runs the full suite over code
// that violates every rule, classified as host-side: nothing may fire.
func TestNonDeterministicPackagesAreExempt(t *testing.T) {
	checkTestdata(t, "nondet", hostPath, Analyzers())
}

// TestDeterministicPackagesDoFire is the classification counterpart:
// the same violating file under a deterministic path must produce
// findings (exact positions are covered by the per-analyzer tests).
func TestDeterministicPackagesDoFire(t *testing.T) {
	pkg := loadTestdata(t, "nondet", detPath)
	diags := CheckPackage(pkg, Analyzers())
	if len(diags) == 0 {
		t.Fatal("expected findings from testdata/nondet under a deterministic import path, got none")
	}
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, a := range Analyzers() {
		if !seen[a.Name] {
			t.Errorf("analyzer %s reported nothing over testdata/nondet", a.Name)
		}
	}
}

// TestTreeIsClean runs the whole suite over the repository exactly as
// `make lint` does: the tree must stay lint-clean. This is the
// compile-time form of the byte-identical-output contract.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	diags, err := Run("../..", []string{"./..."}, nil)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree not lint-clean: %s", d)
	}
}
