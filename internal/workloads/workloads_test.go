package workloads

import (
	"bytes"
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// testCfg keeps unit-test runs quick; shapes are rate-based so they hold at
// any duration.
func testCfg() Config { return Config{Seed: 7, Duration: 90 * sim.Second} }

func summarize(t *testing.T, res *Result) analysis.Summary {
	t.Helper()
	if res.Trace.Counters().Dropped != 0 {
		t.Fatalf("%s/%s dropped %d records", res.OS, res.Name, res.Trace.Counters().Dropped)
	}
	return analysis.Summarize(res.Trace)
}

func TestLinuxWorkloadOrdering(t *testing.T) {
	// Table 1 ordering: Firefox >> Skype > Idle; all user-dominated except
	// the webserver, which is kernel-dominated.
	cfg := testCfg()
	idle := summarize(t, LinuxIdle(cfg))
	skype := summarize(t, LinuxSkype(cfg))
	firefox := summarize(t, LinuxFirefox(cfg))
	web := summarize(t, LinuxWebserver(cfg))

	if !(firefox.Accesses > 2*skype.Accesses && skype.Accesses > idle.Accesses) {
		t.Errorf("access ordering broken: firefox=%d skype=%d idle=%d",
			firefox.Accesses, skype.Accesses, idle.Accesses)
	}
	for name, s := range map[string]analysis.Summary{"idle": idle, "skype": skype, "firefox": firefox} {
		if s.UserSpace <= s.Kernel {
			t.Errorf("%s: user=%d <= kernel=%d; paper shows user domination", name, s.UserSpace, s.Kernel)
		}
	}
	if web.Kernel <= web.UserSpace {
		t.Errorf("webserver: kernel=%d <= user=%d; paper shows kernel domination", web.Kernel, web.UserSpace)
	}
	// Linux cancels heavily (Skype, Firefox, Webserver all cancel more
	// than they expire in Table 1).
	for name, s := range map[string]analysis.Summary{"skype": skype, "webserver": web} {
		if s.Canceled <= s.Expired {
			t.Errorf("%s: canceled=%d <= expired=%d", name, s.Canceled, s.Expired)
		}
	}
	// Concurrency is a few tens, as in Table 1.
	for name, s := range map[string]analysis.Summary{"idle": idle, "skype": skype, "firefox": firefox, "webserver": web} {
		if s.Concurrency < 10 || s.Concurrency > 100 {
			t.Errorf("%s: concurrency=%d outside the paper's range", name, s.Concurrency)
		}
	}
	// Timer-struct reuse keeps distinct Linux identities small even for
	// the 30000-connection webserver.
	if web.Timers > 300 {
		t.Errorf("webserver timers=%d; slab reuse broken", web.Timers)
	}
}

func TestVistaWorkloadOrdering(t *testing.T) {
	cfg := testCfg()
	idle := summarize(t, VistaIdle(cfg))
	skype := summarize(t, VistaSkype(cfg))
	firefox := summarize(t, VistaFirefox(cfg))
	web := summarize(t, VistaWebserver(cfg))

	if !(firefox.Accesses > skype.Accesses && skype.Accesses > idle.Accesses) {
		t.Errorf("access ordering broken: firefox=%d skype=%d idle=%d",
			firefox.Accesses, skype.Accesses, idle.Accesses)
	}
	// Vista: timers mostly expire; cancelations are rare (Table 2).
	for name, s := range map[string]analysis.Summary{"idle": idle, "skype": skype, "firefox": firefox} {
		if s.Expired <= 5*s.Canceled {
			t.Errorf("%s: expired=%d canceled=%d; Vista should be expiry-dominated", name, s.Expired, s.Canceled)
		}
	}
	// The idle Vista box is kernel-heavy (Table 2: 215k kernel vs 56k user).
	if idle.Kernel <= idle.UserSpace {
		t.Errorf("idle: kernel=%d <= user=%d", idle.Kernel, idle.UserSpace)
	}
	// Dynamic allocation: raw identities far exceed call-site clusters for
	// the webserver.
	if web.Timers < 10*web.ClusteredTimers {
		t.Errorf("webserver: timers=%d clustered=%d; Vista should allocate fresh KTIMERs", web.Timers, web.ClusteredTimers)
	}
}

func TestLinuxIdleClassShares(t *testing.T) {
	// Figure 2: the idle workload is dominated by periodic timers and has
	// almost no watchdogs; "other" is substantial (the X select idiom).
	res := LinuxIdle(testCfg())
	shares := analysis.ComputeClassShares(analysis.Lifecycles(res.Trace))
	if shares.Share(analysis.ClassPeriodic) < 25 {
		t.Errorf("idle periodic share = %.1f%%, want ≥25%%", shares.Share(analysis.ClassPeriodic))
	}
	if shares.Share(analysis.ClassWatchdog) > 15 {
		t.Errorf("idle watchdog share = %.1f%%, want small", shares.Share(analysis.ClassWatchdog))
	}
}

func TestLinuxWebserverHasWatchdogsAndTimeouts(t *testing.T) {
	// Figure 2: Apache uses watchdogs/timeouts to guard connections.
	res := LinuxWebserver(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	shares := analysis.ComputeClassShares(ls)
	got := shares.Share(analysis.ClassTimeout) + shares.Share(analysis.ClassWatchdog)
	if got < 10 {
		t.Errorf("webserver timeout+watchdog share = %.1f%%, want ≥10%%", got)
	}
}

func TestLinuxIdleCountdownPresent(t *testing.T) {
	// Figure 4: the X server's select timer counts down from 600 s.
	res := LinuxIdle(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	found := false
	for _, tl := range ls {
		if tl.Origin != "Xorg/select" {
			continue
		}
		for _, c := range analysis.CountdownChains(tl) {
			if c.Len() >= 10 && tl.Uses[c.Start].Timeout > 500*sim.Second {
				found = true
			}
		}
	}
	if !found {
		t.Error("no 600 s X select countdown found")
	}
	pts := analysis.SetSeries(ls, "Xorg")
	if len(pts) < 100 {
		t.Errorf("only %d Xorg series points", len(pts))
	}
}

func TestLinuxIdleFilteredValuesAreConstants(t *testing.T) {
	// Figure 5: filtering X/icewm and collapsing countdowns leaves the
	// programmer constants; the USB 0.248 s and clocksource 0.5 s rows
	// must be prominent.
	res := LinuxIdle(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	entries, _ := analysis.CommonValues(ls, analysis.ValueOptions{
		JiffyBinKernel: true, MinSharePercent: 2,
		CollapseCountdowns: true,
		ExcludeProcesses:   []string{"Xorg", "icewm"},
	})
	want := map[sim.Duration]bool{248 * sim.Millisecond: false, 500 * sim.Millisecond: false, sim.Second: false}
	for _, e := range entries {
		if _, ok := want[e.Value]; ok {
			want[e.Value] = true
		}
	}
	for v, ok := range want {
		if !ok {
			t.Errorf("expected common value %v missing; entries: %+v", v, entries)
		}
	}
}

func TestLinuxSkypeValueSignature(t *testing.T) {
	// Figure 6: Skype's syscall values include 0, 0.4999 and 0.5 s.
	res := LinuxSkype(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	entries, _ := analysis.CommonValues(ls, analysis.ValueOptions{UserOnly: true, MinSharePercent: 1})
	seen := map[sim.Duration]bool{}
	for _, e := range entries {
		seen[e.Value] = true
	}
	for _, v := range []sim.Duration{0, 499900 * sim.Microsecond, 500 * sim.Millisecond} {
		if !seen[v] {
			t.Errorf("Skype value %v missing from ≥1%% histogram: %+v", v, entries)
		}
	}
}

func TestLinuxWebserverKeepaliveAndRetransmitValues(t *testing.T) {
	// Table 3: the 7200 s keepalive and ~0.2 s retransmission rows.
	res := LinuxWebserver(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	var sawKeepalive, sawRTO, sawDelack, saw15 bool
	for _, tl := range ls {
		for _, u := range tl.Uses {
			switch {
			case tl.Origin == "kernel/tcp:keepalive" && u.Timeout >= 7200*sim.Second:
				sawKeepalive = true
			case tl.Origin == "kernel/tcp:retransmit" && u.Timeout >= 190*sim.Millisecond && u.Timeout <= 210*sim.Millisecond:
				sawRTO = true
			case tl.Origin == "kernel/tcp:delack":
				sawDelack = true
			case tl.Origin == "apache2/poll" && u.Timeout == 15*sim.Second:
				saw15 = true
			}
		}
	}
	if !sawKeepalive || !sawRTO || !sawDelack || !saw15 {
		t.Errorf("missing signatures: keepalive=%v rto=%v delack=%v apache15=%v",
			sawKeepalive, sawRTO, sawDelack, saw15)
	}
}

func TestLinuxFirefoxShortTimerScatter(t *testing.T) {
	// Figures 8-11: sub-10 ms timers ride above 100% (jiffy quantization);
	// Firefox's cancels spread over 0-100%.
	res := LinuxFirefox(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	pts := analysis.Scatter(ls, analysis.DefaultScatterOptions())
	late, early := 0, 0
	for _, p := range pts {
		if p.Timeout <= 10*sim.Millisecond && p.RatioPct >= 100 {
			late += p.Count
		}
		if p.RatioPct < 100 {
			early += p.Count
		}
	}
	if late == 0 {
		t.Error("no late short-timer deliveries: jiffy quantization missing")
	}
	if early == 0 {
		t.Error("no early cancels in scatter")
	}
}

func TestVistaDesktopFigure1Shapes(t *testing.T) {
	res := VistaDesktop(Config{Seed: 7, Duration: 90 * sim.Second})
	rates := analysis.SetRates(res.Trace, res.Duration, DesktopGrouper())
	byName := map[string]analysis.RateSeries{}
	for _, s := range rates {
		byName[s.Group] = s
	}
	kernel, ok := byName["Kernel"]
	if !ok || kernel.Mean() < 400 || kernel.Mean() > 3000 {
		t.Errorf("kernel mean = %.0f/s, want ≈1000", kernel.Mean())
	}
	outlook := byName["Outlook"]
	if outlook.Peak() < 2000 {
		t.Errorf("outlook peak = %d/s, want thousands during bursts", outlook.Peak())
	}
	if outlook.Mean() > float64(outlook.Peak())/4 {
		t.Errorf("outlook bursts not bursty: mean=%.0f peak=%d", outlook.Mean(), outlook.Peak())
	}
	browser := byName["Browser"]
	if browser.Mean() < 5 || browser.Mean() > 400 {
		t.Errorf("browser mean = %.0f/s, want tens", browser.Mean())
	}
	if system := byName["System"]; system.Mean() <= 0 {
		t.Error("no system-process line")
	}
}

func TestVistaDeferredPatternPresent(t *testing.T) {
	res := VistaIdle(Config{Seed: 7, Duration: 5 * sim.Minute})
	shares := analysis.ComputeClassShares(analysis.Lifecycles(res.Trace))
	if shares.Counts[analysis.ClassDeferred] == 0 {
		t.Error("no deferred-class timers in the Vista trace")
	}
}

func TestVistaShortWaitsDeliveredLate(t *testing.T) {
	// The Vista Firefox pathology: sub-millisecond waits delivered at
	// clock granularity, far beyond the 250 % cutoff.
	res := VistaFirefox(testCfg())
	ls := analysis.Lifecycles(res.Trace)
	over := 0
	for _, tl := range ls {
		for _, u := range tl.Uses {
			if r, ok := u.Ratio(); ok && u.Timeout <= sim.Millisecond && u.Timeout > 0 && r > 2.5 {
				over++
			}
		}
	}
	if over < 100 {
		t.Errorf("only %d sub-ms waits delivered >250%% late", over)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg := Config{Seed: 3, Duration: 30 * sim.Second}
	a := LinuxFirefox(cfg)
	b := LinuxFirefox(cfg)
	ca, cb := a.Trace.Counters(), b.Trace.Counters()
	if ca != cb {
		t.Fatalf("same seed diverged: %+v vs %+v", ca, cb)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatal("trace lengths differ")
	}
	for i, r := range a.Trace.Records() {
		if r != b.Trace.Records()[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := LinuxFirefox(Config{Seed: 4, Duration: 30 * sim.Second})
	if c.Trace.Counters() == ca {
		t.Fatal("different seeds produced identical counters")
	}
}

func TestRunDispatchers(t *testing.T) {
	cfg := Config{Seed: 1, Duration: 5 * sim.Second}
	for _, n := range LinuxWorkloads() {
		if r := RunLinux(n, cfg); r.Name != n || r.OS != "linux" {
			t.Errorf("RunLinux(%q) = %s/%s", n, r.OS, r.Name)
		}
	}
	for _, n := range VistaWorkloads() {
		if r := RunVista(n, cfg); r.Name != n || r.OS != "vista" {
			t.Errorf("RunVista(%q) = %s/%s", n, r.OS, r.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	RunLinux("nope", cfg)
}

// TestTraceEncodesAndDecodes tees a workload's records into a Buffer and a
// v2 StreamWriter and requires the decoded stream to match the buffer
// record for record, origin name for origin name.
func TestTraceEncodesAndDecodes(t *testing.T) {
	b := trace.NewBuffer(trace.DefaultCapacity)
	var enc bytes.Buffer
	sw := trace.NewStreamWriter(&enc)
	LinuxIdle(Config{Seed: 1, Duration: 10 * sim.Second, Sink: trace.Tee(b, sw)})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(&enc)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Records()
	i := 0
	err = sr.ForEach(func(r trace.Record) {
		if i >= len(want) || r != want[i] {
			t.Fatalf("record %d: %+v differs from the buffer's", i, r)
		}
		if got, w := sr.OriginName(r.Origin), b.OriginName(r.Origin); got != w {
			t.Fatalf("record %d origin %q, want %q", i, got, w)
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) || len(want) == 0 {
		t.Fatalf("decoded %d records, buffer holds %d", i, len(want))
	}
}

func TestDesktopDeterminism(t *testing.T) {
	cfg := Config{Seed: 5, Duration: 30 * sim.Second}
	a := VistaDesktop(cfg)
	b := VistaDesktop(cfg)
	if a.Trace.Counters() != b.Trace.Counters() {
		t.Fatalf("desktop diverged: %+v vs %+v", a.Trace.Counters(), b.Trace.Counters())
	}
}

func TestTraceCapDropsGracefully(t *testing.T) {
	// A tiny buffer: the workload must complete, counting drops like
	// relayfs would, never crashing or overwriting.
	res := LinuxFirefox(Config{Seed: 1, Duration: 30 * sim.Second, TraceCap: 1000})
	c := res.Trace.Counters()
	if res.Trace.Len() != 1000 {
		t.Fatalf("len = %d", res.Trace.Len())
	}
	if c.Dropped == 0 {
		t.Fatal("nothing dropped despite tiny cap")
	}
	if c.Total != uint64(res.Trace.Len())+c.Dropped {
		t.Fatalf("counters inconsistent: %+v", c)
	}
	if res.Counters != c {
		t.Fatalf("Result.Counters %+v != buffer counters %+v", res.Counters, c)
	}
}

// TestExternalSinkMatchesBuffer checks the Config.Sink seam: streaming a run
// through a StreamWriter must produce the exact record and origin stream the
// in-memory buffer records, leave Result.Trace nil, and carry the counters.
func TestExternalSinkMatchesBuffer(t *testing.T) {
	cfg := Config{Seed: 1, Duration: 30 * sim.Second}
	buffered := LinuxIdle(cfg)

	var spill bytes.Buffer
	sw := trace.NewStreamWriter(&spill)
	cfg.Sink = sw
	streamed := LinuxIdle(cfg)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if streamed.Trace != nil {
		t.Fatal("Result.Trace not nil with an external sink")
	}
	if streamed.Counters != buffered.Counters {
		t.Fatalf("counters %+v != %+v", streamed.Counters, buffered.Counters)
	}

	sr, err := trace.NewStreamReader(bytes.NewReader(spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := buffered.Trace.Records()
	i := 0
	err = sr.ForEach(func(r trace.Record) {
		if i < len(want) && r != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, r, want[i])
		}
		if gn, wn := sr.OriginName(r.Origin), buffered.Trace.OriginName(r.Origin); gn != wn {
			t.Fatalf("record %d origin: %q != %q", i, gn, wn)
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("streamed %d records, buffered %d", i, len(want))
	}
}

func TestWebserverRelationInference(t *testing.T) {
	// Section 5.2 end-to-end: the webserver trace contains inferable
	// couplings between per-connection timers.
	res := LinuxWebserver(Config{Seed: 7, Duration: 3 * sim.Minute})
	rels := analysis.InferRelations(analysis.Lifecycles(res.Trace), analysis.InferOptions{})
	if len(rels) == 0 {
		t.Fatal("no relations inferred from the webserver trace")
	}
	var sawDep, sawOverlap bool
	for _, r := range rels {
		switch r.Kind {
		case analysis.RelDependsOn:
			sawDep = true
		case analysis.RelOverlaps:
			sawOverlap = true
		}
	}
	if !sawDep || !sawOverlap {
		t.Fatalf("kinds missing: dep=%v overlap=%v", sawDep, sawOverlap)
	}
}
