// Command timerlint runs the module's timer-hygiene and determinism
// analyzers (magictimeout, wallclock, uncheckedcancel, exactspec, rawsink,
// mapiter, goroutinecapture, allocfree) over the repository and prints
// position-accurate diagnostics.
//
// Usage:
//
//	timerlint [flags] [./... | dir ...]
//
// With "./..." (or no arguments) every package of the enclosing module is
// checked; explicit directories check just those packages. -as loads a single
// directory under the given import path, which places testdata fixtures on
// the policed paths the path-scoped analyzers care about.
//
// Output formats (-format): "text" (default, file:line:col lines), "json"
// (indented array, also via the legacy -json flag), and "github" (GitHub
// Actions ::error/::warning workflow commands that annotate a pull request).
//
// -baseline FILE drops findings recorded in an accepted-debt baseline;
// -write-baseline FILE records the current findings as that baseline.
// -run selects a comma-separated subset of analyzers; -j caps loader
// parallelism; -bench FILE merges the package count and each analyzer's
// suppressed-finding count into a benchmark JSON report under its "lint" key.
//
// Exit status is 0 when clean (warnings only count as clean under
// -severity=error), 1 when findings were reported, 2 on a load or usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"timerstudy/internal/lint"
	"timerstudy/internal/version"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (same as -format=json)")
	format := flag.String("format", "text", "output format: text, json, or github")
	asPath := flag.String("as", "", "load a single directory under this import path (fixture testing)")
	runList := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	workers := flag.Int("j", 0, "parallel package loads (0 = GOMAXPROCS)")
	severity := flag.String("severity", "warning", "minimum severity that fails the run: warning or error")
	baseline := flag.String("baseline", "", "drop findings recorded in this baseline file")
	writeBaseline := flag.String("write-baseline", "", "record current findings as the accepted-debt baseline and exit 0")
	benchOut := flag.String("bench", "", "merge package and suppressed-finding counts into this benchmark JSON file under the \"lint\" key")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: timerlint [flags] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		os.Exit(0)
	}
	if *jsonOut {
		*format = "json"
	}
	os.Exit(run(options{
		format:        *format,
		asPath:        *asPath,
		runList:       *runList,
		workers:       *workers,
		severity:      lint.Severity(*severity),
		baseline:      *baseline,
		writeBaseline: *writeBaseline,
		benchOut:      *benchOut,
	}, flag.Args()))
}

type options struct {
	format        string
	asPath        string
	runList       string
	workers       int
	severity      lint.Severity
	baseline      string
	writeBaseline string
	benchOut      string
}

func run(opts options, args []string) int {
	switch opts.format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "timerlint: unknown format %q (want text, json, or github)\n", opts.format)
		return 2
	}
	analyzers, err := lint.Select(opts.runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "timerlint:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timerlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "timerlint:", err)
		return 2
	}

	var pkgs []*lint.Package
	if opts.asPath != "" {
		if len(args) != 1 || args[0] == "./..." {
			fmt.Fprintln(os.Stderr, "timerlint: -as requires exactly one directory argument")
			return 2
		}
		p, err := loader.LoadDirAs(args[0], opts.asPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
		pkgs = append(pkgs, p)
	} else if len(args) == 0 || (len(args) == 1 && args[0] == "./...") {
		pkgs, err = loader.LoadAllWorkers(opts.workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
	} else {
		for _, dir := range args {
			p, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "timerlint:", err)
				return 2
			}
			pkgs = append(pkgs, p)
		}
	}

	ds, stats := lint.RunStats(loader, pkgs, analyzers)
	lint.Relativize(loader.ModuleDir, ds)

	if opts.writeBaseline != "" {
		if err := lint.WriteBaseline(opts.writeBaseline, ds); err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "timerlint: wrote %d finding(s) to baseline %s\n", len(ds), opts.writeBaseline)
		return 0
	}
	if opts.baseline != "" {
		var dropped int
		ds, dropped, err = lint.ApplyBaseline(opts.baseline, ds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "timerlint: %d baselined finding(s) suppressed\n", dropped)
		}
	}
	if opts.benchOut != "" {
		if err := mergeBenchStats(opts.benchOut, len(pkgs), stats); err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
	}

	switch opts.format {
	case "json":
		out, err := lint.JSON(ds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timerlint:", err)
			return 2
		}
		fmt.Println(string(out))
	case "github":
		fmt.Print(lint.GitHub(ds))
	default:
		fmt.Print(lint.Text(ds))
	}
	failing := lint.FilterSeverity(ds, opts.severity)
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "timerlint: %d finding(s)\n", len(ds))
		return 1
	}
	return 0
}

// mergeBenchStats inserts the run's counts under the "lint" key of a
// benchmark JSON report (created if absent), preserving other keys.
func mergeBenchStats(path string, pkgCount int, stats []lint.AnalyzerStat) error {
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	report["lint"] = map[string]any{
		"packages":  pkgCount,
		"analyzers": stats,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
