// Package metricname polices the obs metrics namespace at compile time.
// PR 6 had to teach the debug plane's promNamer to suffix colliding
// Prometheus series with _2 because two dotted registry names can sanitize
// to the same prom base — a silent rename that breaks dashboards. This
// pass makes that machinery unreachable:
//
//   - every obs.NewCounter/NewGauge/NewHistogram name must be a
//     compile-time constant — a dynamic name defeats grepping and can
//     collide at runtime where no analyzer sees it;
//   - names must match the registry grammar: dotted lowercase
//     alphanumeric segments, each starting with a letter
//     (^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)*$). Under that grammar prom
//     sanitization is exactly dot→underscore, so collisions are decidable
//     statically;
//   - histogram names end in ".ns" — every histogram in the repo is a
//     nanosecond latency, and the convention keeps units out of
//     dashboards' guesswork;
//   - across the whole suite (Begin resets the state once per driver
//     run), no two registrations may claim the same name, and no two
//     names may collide in prom space, where a counter claims {base}, a
//     gauge {base, base_max} and a histogram {base, base_bucket,
//     base_sum, base_count}. Whole-suite means whole-module standalone
//     runs; under unitchecker (one package per process) the check
//     degrades to per-package.
//
// Constant obs Timeline track names (Timeline.TrackID)
// get a lighter grammar check (slash/underscore/dash separators allowed);
// dynamic track names are legitimate — tracks are per-worker rows, not
// dashboard series.
//
// The same discipline covers log names: every log/slog message
// (Debug/Info/Warn/Error, their …Context forms, Log and LogAttrs, on a
// *slog.Logger or the default logger), every attr key built with
// slog.String/Int/Int64/Float64/Bool/Duration/Any, and every span attr key
// built with obs.Str/Int/F64 (span attrs reach the log through the
// obs.span.end line) must be a compile-time constant matching the registry
// grammar, so log lines stay greppable and a dashboard can alias a metric
// to the log stream that explains it. The obs package itself is exempt —
// the span-end line forwards dynamic span names and keys by design.
// Registrations of the per-route httpd.* RED metrics go through the
// ordinary duplicate/prom-collision suite check like any other name.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "obs metric registrations use constant dotted-lowercase names, unique across the suite " +
		"and collision-free after prom sanitization (promNamer's _2 suffixing must be unreachable)",
	Run:   run,
	Begin: reset,
}

// nameRE is the registry grammar; trackRE the looser timeline-track one.
var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)*$`)
	trackRE = regexp.MustCompile(`^[a-z][a-z0-9]*([./_-][a-z0-9]+)*$`)
)

// claim records who owns a registry name or a prom series.
type claim struct {
	name string // registry name that made the claim
	posn string // file:line of the registration
}

// suite is the cross-package state, reset once per driver run.
var suite struct {
	names  map[string]claim // registry name → first registration
	series map[string]claim // prom series → owning registration
}

func reset() {
	suite.names = map[string]claim{}
	suite.series = map[string]claim{}
}

// constructors maps obs constructor names to the prom series suffixes each
// metric kind exports (WriteMetricsText's contract).
var constructors = map[string][]string{
	"NewCounter":   {""},
	"NewGauge":     {"", "_max"},
	"NewHistogram": {"", "_bucket", "_sum", "_count"},
}

// logMethods maps the log/slog logging calls to the index of the message
// argument (the …Context forms take a ctx first, Log and LogAttrs a ctx
// and a level). In log/slog these names belong only to *slog.Logger's
// methods and the package-level functions logging to the default logger,
// which take the message at the same index.
var logMethods = map[string]int{
	"Debug": 0, "Info": 0, "Warn": 0, "Error": 0,
	"DebugContext": 1, "InfoContext": 1, "WarnContext": 1, "ErrorContext": 1,
	"Log": 2, "LogAttrs": 2,
}

// slogAttrCtors are the log/slog attr constructors whose first argument
// names a log field.
var slogAttrCtors = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Float64": true,
	"Bool": true, "Duration": true, "Any": true,
}

// obsAttrCtors are the package-level obs span attr constructors.
var obsAttrCtors = map[string]bool{"Str": true, "Int": true, "F64": true}

func run(pass *analysis.Pass) error {
	if suite.names == nil {
		reset() // standalone Run without Begin (unitchecker path)
	}
	// The span-end line forwards dynamic span names and attr keys; the
	// log-name rules apply to the callers of obs, not to obs itself.
	selfObs := analysis.PathHasSuffix(pass.Pkg.Path(), "internal/obs")
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := pass.CalleeFunc(call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		switch path := f.Pkg().Path(); {
		case analysis.PathHasSuffix(path, "internal/obs"):
			if suffixes, ok := constructors[f.Name()]; ok && len(call.Args) == 1 {
				checkRegistration(pass, call, f.Name(), suffixes)
			}
			if f.Name() == "TrackID" {
				checkTrack(pass, call)
			}
			if !selfObs && obsAttrCtors[f.Name()] && !isMethod(f) && len(call.Args) == 2 {
				checkLogName(pass, call.Args[0], "log attr key")
			}
		case path == "log/slog" && !selfObs:
			if idx, ok := logMethods[f.Name()]; ok && len(call.Args) > idx {
				checkLogName(pass, call.Args[idx], "log message")
			}
			if slogAttrCtors[f.Name()] && !isMethod(f) && len(call.Args) == 2 {
				checkLogName(pass, call.Args[0], "log attr key")
			}
		}
		return true
	})
	return nil
}

func isMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// checkLogName holds a log message or attr key to the same constant
// dotted-lowercase discipline as metric names.
func checkLogName(pass *analysis.Pass, e ast.Expr, what string) {
	name, ok := constString(pass, e)
	if !ok {
		pass.Reportf(e.Pos(),
			"%s must be a compile-time constant: dynamic log names defeat grepping", what)
		return
	}
	if !nameRE.MatchString(name) {
		pass.Reportf(e.Pos(),
			"%s %q does not match the log-name grammar (dotted lowercase, segments start with a letter)", what, name)
	}
}

// checkRegistration enforces constness, grammar, and suite-wide
// uniqueness for one obs.New* call.
func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, kind string, suffixes []string) {
	name, ok := constString(pass, call.Args[0])
	if !ok {
		pass.Reportf(call.Args[0].Pos(),
			"obs.%s name must be a compile-time constant", kind)
		return
	}
	if !nameRE.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"metric name %q does not match the registry grammar (dotted lowercase, segments start with a letter)", name)
		return
	}
	if kind == "NewHistogram" && !strings.HasSuffix(name, ".ns") {
		pass.Reportf(call.Args[0].Pos(),
			"histogram %q must end in .ns: every histogram is a nanosecond latency", name)
	}
	posn := pass.Fset.Position(call.Pos()).String()
	if prev, dup := suite.names[name]; dup {
		pass.Reportf(call.Args[0].Pos(),
			"metric %q already registered at %s: one metric, one registration site", name, prev.posn)
		return
	}
	suite.names[name] = claim{name: name, posn: posn}
	base := strings.ReplaceAll(name, ".", "_")
	for _, suffix := range suffixes {
		series := base + suffix
		if prev, collides := suite.series[series]; collides {
			pass.Reportf(call.Args[0].Pos(),
				"metric %q collides with %q (registered at %s) on prom series %q: promNamer would rename it to %s_2",
				name, prev.name, prev.posn, series, series)
			continue
		}
		suite.series[series] = claim{name: name, posn: posn}
	}
}

// checkTrack applies the track grammar to constant TrackID names;
// dynamic names pass through.
func checkTrack(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	name, ok := constString(pass, call.Args[0])
	if !ok {
		return
	}
	if !trackRE.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"timeline track %q does not match the track grammar (lowercase segments joined by . / _ -)", name)
	}
}

// constString returns the compile-time string value of e, if it has one.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
