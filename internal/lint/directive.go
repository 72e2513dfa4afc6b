package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// //lint:allow directives.
//
// A finding is suppressed by annotating the offending line:
//
//	for t := range s.segs { //lint:allow maprange(keys insertion-sorted by TID below)
//
// or by a standalone comment on the line directly above it:
//
//	//lint:allow goleak(coroutine handoff; engine serialises all procs)
//	go func() { ... }()
//
// The reason string is mandatory: an allow is a claim that the site is
// deterministic anyway, and the claim must be stated where the next
// reader (and the next refactor) can judge it. Malformed directives —
// unknown analyzer, missing or empty reason, trailing junk — are
// reported as errors rather than silently honoured, so a typo can
// never quietly disable a rule. So is a stale allow, one that
// suppresses no finding: once the code it excused is gone, the claim
// describes nothing and would silently excuse whatever lands there next.

// directiveName is the pseudo-analyzer under which malformed- and
// stale-directive errors are reported. It is not suppressible.
const directiveName = "lintdirective"

// allowKey identifies one suppressed (file line, analyzer) site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allow is one well-formed //lint:allow directive.
type allow struct {
	pos      token.Position
	analyzer string
	used     bool // it suppressed at least one finding
}

// allowIndex records which analyzer findings are suppressed at which
// lines of a package.
type allowIndex struct {
	allowed map[allowKey][]*allow
	all     []*allow // in source order
}

// suppresses reports whether d is covered by an allow directive, and
// marks the covering directives used.
func (ix *allowIndex) suppresses(d Diagnostic) bool {
	if d.Analyzer == directiveName {
		return false
	}
	as := ix.allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]
	for _, a := range as {
		a.used = true
	}
	return len(as) > 0
}

// reportStale reports every allow for one of the analyzers that ran
// which suppressed nothing. Allows for analyzers that did not run are
// left alone: there is no evidence either way.
func (ix *allowIndex) reportStale(ran []*Analyzer, report func(Diagnostic)) {
	for _, a := range ix.all {
		if a.used || !slices.ContainsFunc(ran, func(x *Analyzer) bool { return x.Name == a.analyzer }) {
			continue
		}
		report(Diagnostic{Analyzer: directiveName, Pos: a.pos,
			Message: "stale //lint:allow " + a.analyzer + ": no " + a.analyzer +
				" finding on this line or the next to suppress; delete the directive"})
	}
}

// buildAllowIndex scans the files' comments for //lint: directives,
// reporting malformed ones through report. A valid allow covers its
// own line and the line directly below (so both trailing and
// line-above placement work).
func buildAllowIndex(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) *allowIndex {
	ix := &allowIndex{allowed: make(map[allowKey][]*allow)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				name, errmsg := parseAllow(body)
				if errmsg != "" {
					report(Diagnostic{Analyzer: directiveName, Pos: pos, Message: errmsg})
					continue
				}
				a := &allow{pos: pos, analyzer: name}
				ix.all = append(ix.all, a)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := allowKey{pos.Filename, line, name}
					ix.allowed[k] = append(ix.allowed[k], a)
				}
			}
		}
	}
	return ix
}

// parseAllow parses the body of a //lint: comment (everything after
// the colon). It returns the allowed analyzer name, or a non-empty
// error message describing why the directive is malformed.
func parseAllow(body string) (name, errmsg string) {
	verb, rest, hasArg := strings.Cut(body, " ")
	if verb != "allow" {
		return "", "malformed lint directive: unknown verb //lint:" + verb + " (only //lint:allow analyzer(reason) is defined)"
	}
	if !hasArg {
		return "", "malformed //lint:allow: want //lint:allow analyzer(reason)"
	}
	rest = strings.TrimSpace(rest)
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return "", "malformed //lint:allow: want //lint:allow analyzer(reason), got no (reason)"
	}
	name = strings.TrimSpace(rest[:open])
	if _, ok := AnalyzerByName(name); !ok {
		return "", `malformed //lint:allow: unknown analyzer "` + name + `"`
	}
	if !strings.HasSuffix(rest, ")") {
		return "", "malformed //lint:allow: missing closing parenthesis"
	}
	reason := strings.TrimSpace(rest[open+1 : len(rest)-1])
	if reason == "" {
		return "", "malformed //lint:allow: empty reason — state why the site is deterministic"
	}
	return name, ""
}
