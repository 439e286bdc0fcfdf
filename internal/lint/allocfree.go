package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// allocFreeMarker opts a function into the escape-analysis gate. It goes in
// the function's doc comment, optionally followed by a note:
//
//	//lint:allocfree steady-state schedule path; guarded by AllocsPerRun
//	func (e *Engine) At(...) ...
const allocFreeMarker = "//lint:allocfree"

// AllocFree checks functions annotated //lint:allocfree against the
// compiler's own escape analysis. The repo's zero-allocation invariant
// (pooled events, the v2 record encoder) is enforced
// dynamically by testing.AllocsPerRun guards, but those fail as an opaque
// count after the regression lands. This analyzer runs
// `go build -gcflags=-m=2` on each annotated package — the build cache
// replays the diagnostics, so warm runs cost one cache probe — and maps
// every "escapes to heap"/"moved to heap" line that falls inside an
// annotated function back to its source position. An alloc regression is
// reported at the offending expression, reviewable in the diff.
//
// Known cold paths inside a hot function (an error panic's fmt.Sprintf, a
// pool's grow-on-empty construction) are suppressed at the line with a
// reasoned //lint:ignore allocfree directive.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //lint:allocfree must be free of heap escapes " +
		"per the compiler's escape analysis (go build -gcflags=-m=2)",
	Run: runAllocFree,
}

// escapeDiag is one parsed compiler escape-analysis diagnostic.
type escapeDiag struct {
	file string // absolute path
	line int
	col  int
	msg  string
}

// escapeLineRe matches the file:line:col prefix of a -m=2 diagnostic line.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeCache memoizes escape diagnostics per package directory: the suite
// runs the analyzer once per loaded package per test, and the underlying
// compile output never changes within one process run.
var escapeCache sync.Map // abs dir -> escapeResult

type escapeResult struct {
	diags []escapeDiag
	err   error
}

// annotatedFunc is one //lint:allocfree function's coverage window.
type annotatedFunc struct {
	name    string
	file    string // filename as the FileSet knows it (for suppressions)
	absFile string // absolute path (for matching compiler output)
	start   int    // first line of the declaration
	end     int    // last line of the body
}

func runAllocFree(pass *Pass) {
	var fns []annotatedFunc
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			if !hasAllocFreeMarker(fd.Doc) {
				continue
			}
			pos := pass.Fset.Position(fd.Pos())
			end := pass.Fset.Position(fd.End())
			abs, err := filepath.Abs(pos.Filename)
			if err != nil {
				abs = pos.Filename
			}
			fns = append(fns, annotatedFunc{
				name:    funcDisplayName(fd),
				file:    pos.Filename,
				absFile: abs,
				start:   pos.Line,
				end:     end.Line,
			})
		}
	}
	if len(fns) == 0 {
		return
	}

	res := escapeDiagsFor(pass.Pkg.Dir)
	if res.err != nil {
		// A package that does not compile under the real toolchain cannot
		// honor the annotation; surface that at the first annotated function.
		pass.ReportPosition(SeverityError, "build", token.Position{
			Filename: fns[0].file, Line: fns[0].start, Column: 1,
		}, "cannot verify //lint:allocfree: %v", res.err)
		return
	}
	for _, d := range res.diags {
		for _, fn := range fns {
			if d.file != fn.absFile || d.line < fn.start || d.line > fn.end {
				continue
			}
			pass.ReportPosition(SeverityError, "escape", token.Position{
				Filename: fn.file, Line: d.line, Column: d.col,
			}, "heap allocation in //lint:allocfree function %s: %s", fn.name, strings.TrimSuffix(d.msg, ":"))
			break
		}
	}
}

// hasAllocFreeMarker reports whether a doc comment carries //lint:allocfree.
func hasAllocFreeMarker(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if c.Text == allocFreeMarker || strings.HasPrefix(c.Text, allocFreeMarker+" ") {
			return true
		}
	}
	return false
}

// funcDisplayName renders "Name" or "(Recv).Name" for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		b.WriteString("*")
		if id, ok := t.X.(*ast.Ident); ok {
			b.WriteString(id.Name)
		}
	case *ast.Ident:
		b.WriteString(t.Name)
	}
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// escapeDiagsFor compiles the package in dir with -gcflags=-m=2 and returns
// the heap-escape diagnostics, memoized per directory.
func escapeDiagsFor(dir string) escapeResult {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	if cached, ok := escapeCache.Load(abs); ok {
		return cached.(escapeResult)
	}
	res := runEscapeAnalysis(abs)
	escapeCache.Store(abs, res)
	return res
}

// runEscapeAnalysis shells out to the go tool. The compiler is the only
// authoritative source of escape facts; reimplementing its analysis over
// go/types would diverge from what the binary actually does.
func runEscapeAnalysis(absDir string) escapeResult {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return escapeResult{err: fmt.Errorf("go toolchain not found: %w", err)}
	}
	root, err := findModuleRoot(absDir)
	if err != nil {
		return escapeResult{err: err}
	}
	rel, err := filepath.Rel(root, absDir)
	if err != nil {
		return escapeResult{err: err}
	}
	target := "./" + filepath.ToSlash(rel)
	if rel == "." {
		target = "."
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-m=2", target)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return escapeResult{err: fmt.Errorf("go build -gcflags=-m=2 %s: %v\n%s", target, err, firstLines(string(out), 10))}
	}
	var diags []escapeDiag
	seen := map[string]bool{} // -m=2 restates verdicts (trace + summary form)
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		// -m=2 emits inlining facts and per-edge "flow:" traces under the
		// same position prefix; only the escape verdicts gate the invariant.
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if strings.HasPrefix(msg, "flow:") || strings.HasPrefix(msg, "from ") {
			continue
		}
		// A constant string "escaping" (a panic argument, typically) lives in
		// rodata; no allocation happens at runtime.
		if strings.HasPrefix(msg, `"`) || strings.HasPrefix(msg, "`") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		key := file + ":" + m[2] + ":" + m[3]
		if seen[key] {
			continue
		}
		seen[key] = true
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escapeDiag{file: file, line: ln, col: col, msg: msg})
	}
	return escapeResult{diags: diags}
}

// firstLines truncates s to at most n lines for an error message.
func firstLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = append(lines[:n], "...")
	}
	return strings.Join(lines, "\n")
}
