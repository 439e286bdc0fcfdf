package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MagicTimeout, WallClock, UncheckedCancel, ExactSpec, RawSink,
		MapIter, GoroutineCapture, AllocFree,
	}
}

// Select resolves a comma-separated list of analyzer names ("" means all).
func Select(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// AnalyzerStat counts one analyzer's findings that a //lint:ignore or
// //lint:file-ignore directive suppressed over a run: the accepted
// exceptions the bench report pins.
type AnalyzerStat struct {
	Name       string `json:"name"`
	Suppressed int    `json:"suppressed"`
}

// Run applies the analyzers to the packages, filters suppressed findings,
// reports malformed and unused suppression directives, and returns the
// surviving diagnostics sorted by position.
func Run(fsetOwner *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ds, _ := RunStats(fsetOwner, pkgs, analyzers)
	return ds
}

// RunStats is Run plus per-analyzer suppression counts, in analyzer order.
func RunStats(fsetOwner *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStat) {
	fset := fsetOwner.Fset()
	stats := make([]AnalyzerStat, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(fset, pkg.Files)
		out = append(out, sup.malformed...)
		for i, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     fset,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					if sup.suppresses(d) {
						stats[i].Suppressed++
						return
					}
					out = append(out, d)
				},
			})
		}
		// A directive nothing matched is stale: either the violation is gone
		// or the analyzer name is wrong. Both deserve a finding.
		for file, dirs := range sup.byFile {
			for _, dir := range dirs {
				if !dir.used && analyzerKnown(analyzers, dir.analyzer) {
					kind := "//lint:ignore"
					if dir.wholeFile {
						kind = "//lint:file-ignore"
					}
					out = append(out, Diagnostic{
						Analyzer: "lint",
						Severity: SeverityError,
						File:     file,
						Line:     dir.line,
						Col:      1,
						Message:  "unused " + kind + " " + dir.analyzer + " directive (no matching finding in its scope)",
					})
				}
			}
		}
	}
	// The surviving set is what gates CI. Keep the output deterministically
	// ordered by position regardless of package or analyzer order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out, stats
}

func analyzerKnown(analyzers []*Analyzer, name string) bool {
	if name == "all" {
		return true
	}
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// MaxSeverity returns the highest severity among the diagnostics (errors
// outrank warnings), or "" for an empty set.
func MaxSeverity(ds []Diagnostic) Severity {
	out := Severity("")
	for _, d := range ds {
		switch d.severity() {
		case SeverityError:
			return SeverityError
		case SeverityWarning:
			out = SeverityWarning
		}
	}
	return out
}

// FilterSeverity keeps diagnostics at or above min ("warning" keeps all,
// "error" keeps errors only).
func FilterSeverity(ds []Diagnostic, min Severity) []Diagnostic {
	if min == "" || min == SeverityWarning {
		return ds
	}
	var out []Diagnostic
	for _, d := range ds {
		if d.severity() == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Relativize rewrites diagnostic file paths relative to root, for stable
// output across machines.
func Relativize(root string, ds []Diagnostic) {
	for i := range ds {
		if rel, err := filepath.Rel(root, ds[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			ds[i].File = rel
		}
	}
}

// Text renders diagnostics one per line in file:line:col form.
func Text(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders diagnostics as an indented JSON array.
func JSON(ds []Diagnostic) ([]byte, error) {
	if ds == nil {
		ds = []Diagnostic{}
	}
	return json.MarshalIndent(ds, "", "  ")
}

// GitHub renders diagnostics as GitHub Actions workflow commands, one per
// line, so a CI run annotates the offending lines of a pull request.
func GitHub(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		level := "error"
		if d.severity() == SeverityWarning {
			level = "warning"
		}
		msg := d.Message
		if d.Category != "" {
			msg = fmt.Sprintf("%s [%s]", msg, d.Category)
		}
		// Workflow-command escaping: %, CR and LF in the message payload.
		msg = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
		fmt.Fprintf(&b, "::%s file=%s,line=%d,col=%d,title=timerlint %s::%s\n",
			level, d.File, d.Line, d.Col, d.Analyzer, msg)
	}
	return b.String()
}

// baselineEntry is one accepted pre-existing finding. Line numbers are
// deliberately absent: a baseline must survive unrelated edits to the file,
// so entries match on (file, analyzer, message) only.
type baselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteBaseline records the findings in path as an accepted-debt baseline
// for later ApplyBaseline calls. An empty set writes an empty baseline.
func WriteBaseline(path string, ds []Diagnostic) error {
	entries := make([]baselineEntry, 0, len(ds))
	for _, d := range ds {
		entries = append(entries, baselineEntry{File: d.File, Analyzer: d.Analyzer, Message: d.Message})
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ApplyBaseline drops findings matching entries of the baseline at path,
// consuming each entry at most once, and returns the survivors plus the
// number suppressed. Incremental adoption: commit today's findings as the
// baseline, gate CI on the survivors, burn the file down over time.
func ApplyBaseline(path string, ds []Diagnostic) ([]Diagnostic, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("lint: reading baseline: %w", err)
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, 0, fmt.Errorf("lint: parsing baseline %s: %w", path, err)
	}
	remaining := map[baselineEntry]int{}
	for _, e := range entries {
		remaining[e]++
	}
	var out []Diagnostic
	suppressed := 0
	for _, d := range ds {
		key := baselineEntry{File: d.File, Analyzer: d.Analyzer, Message: d.Message}
		if remaining[key] > 0 {
			remaining[key]--
			suppressed++
			continue
		}
		out = append(out, d)
	}
	return out, suppressed, nil
}
