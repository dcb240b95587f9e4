// Command perfbench is the repository's benchmark. It stands up an
// in-process cluster of two slots, each a three-member quorum group,
// drives it from one process with two closed-loop clients sharing one
// kv client, checks that every result is correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// lines of text followed by one JSON object on the last line.
//
// Usage:
//
//	perfbench -workload wiki|ycsb-b|ycsb-a-wal|ycsb-e -seed N -seconds S -trace 0|1
//
// See README.md for the workloads, the metrics and the known gaps.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/ycsb"
)

// workload is one traffic mix over its own data set.
type workload interface {
	// load creates and fills the data set; part of set-up.
	load(ctx context.Context, e *env) error
	// newDriver returns closed-loop client id, its choices drawn from seed.
	newDriver(id int, seed int64) (driver, error)
	// trees are the DBT handles whose counters the dbt metrics sum.
	trees() []*dbt.Tree
	// check verifies the data after the run; read-only.
	check(ctx context.Context) error
	// close stops the workload's background work (tree splitters).
	close()
}

type spec struct {
	name string
	wal  bool // every member keeps a write-ahead log
	make func() workload
}

var specs = []spec{
	{"wiki", false, func() workload { return &wikiWL{} }},
	{"ycsb-b", false, func() workload { return &ycsbWL{mix: ycsb.WorkloadB} }},
	{"ycsb-a-wal", true, func() workload { return &ycsbWL{mix: ycsb.WorkloadA} }},
	{"ycsb-e", false, func() workload { return &ycsbWL{mix: ycsb.WorkloadE} }},
}

// flushPolicy states how durable a workload's writes are.
func (s spec) flushPolicy() string {
	if s.wal {
		return "WAL appended in commit order, never fsynced"
	}
	return "no WAL: memory only"
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is one invocation's settings.
type config struct {
	spec    spec
	seed    int64
	seconds int
	trace   bool
	setups  int           // set-ups timed; the median is setup_s
	warmup  time.Duration // unmeasured load before the timed run
	walRoot string        // where WAL directories go
}

// report is one run's outcome.
type report struct {
	cfg     config
	setups  []float64
	warm    runResult // the unmeasured warm-up
	res     runResult
	metrics []metric
	checks  []checkResult
	// steal is the host's stolen share of CPU time during the run.
	steal   float64
	stealOK bool
	// historyNote says whether members' full version histories agree;
	// informational (see quiesceDigests).
	historyNote string
}

type checkResult struct {
	name string
	err  error
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wiki, ycsb-b, ycsb-a-wal or ycsb-e")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 3, warmup: time.Second,
		walRoot: filepath.Join(wd, ".bench_build"),
	}
	if cfg.trace {
		cfg.setups = 1 // set-up time is an end-to-end metric only
	}
	rep, err := bench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !cfg.trace {
		// Every end-to-end metric of the result line must be measured.
		for _, m := range rep.metrics {
			if !m.ok && !m.info {
				fmt.Fprintf(stderr, "perfbench: %s: %s (%d reads, %d writes); run longer\n",
					m.name, m.why, len(rep.res.lat[sRead]), len(rep.res.lat[sWrite]))
				return 1
			}
		}
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// setUp stands the system up and loads the workload's data: cluster
// start, load, and waiting until backups serve follower reads.
func setUp(ctx context.Context, cfg config, walDir string) (*env, workload, error) {
	if !cfg.spec.wal {
		walDir = ""
	}
	e, err := startEnv(ctx, walDir)
	if err != nil {
		return nil, nil, err
	}
	wl := cfg.spec.make()
	if err := wl.load(ctx, e); err != nil {
		wl.close()
		e.close()
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	if err := e.waitFollowerReads(ctx); err != nil {
		wl.close()
		e.close()
		return nil, nil, err
	}
	return e, wl, nil
}

func bench(ctx context.Context, cfg config) (*report, error) {
	rep := &report{cfg: cfg}
	var e *env
	var wl workload
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			wl.close()
			e.close()
		}
		walDir := filepath.Join(cfg.walRoot, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		var err error
		if e, wl, err = setUp(ctx, cfg, walDir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer e.close()
	defer wl.close()
	if cfg.trace {
		if err := e.startRF1(ctx); err != nil {
			return nil, fmt.Errorf("rf1 baseline cluster: %w", err)
		}
	}
	drivers := make([]driver, clients)
	for i := range drivers {
		var err error
		if drivers[i], err = wl.newDriver(i, cfg.seed*clients+int64(i)); err != nil {
			return nil, err
		}
	}

	rep.warm = runLoop(ctx, e, drivers, cfg.warmup, false)
	// Start every run from a freshly collected heap, so the run's
	// collection cycles do not depend on the garbage set-up left.
	runtime.GC()
	before := readCounters(e, wl.trees())
	res := runLoop(ctx, e, drivers, time.Duration(cfg.seconds)*time.Second, cfg.trace)
	after := readCounters(e, wl.trees())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.res = res
	rep.steal, rep.stealOK = ratio(float64(after.hostSteal-before.hostSteal), float64(after.hostAll-before.hostAll))

	if cfg.trace {
		rep.metrics = perLayer(res, before, after)
	} else {
		rep.metrics = endToEnd(median(rep.setups), res, ms.HeapInuse)
	}

	var opErr error
	if wrong := rep.warm.wrong + res.wrong; wrong > 0 {
		opErr = fmt.Errorf("%d operations returned wrong results, e.g. %v", wrong, firstWrong(append(rep.warm.errs, res.errs...)))
	}
	rep.checks = append(rep.checks,
		checkResult{"operation results", opErr},
		checkResult{"final data", wl.check(ctx)},
	)
	wl.close()
	var digestErr error
	rep.historyNote, digestErr = e.quiesceDigests()
	rep.checks = append(rep.checks, checkResult{"replica newest-version digests", digestErr})
	return rep, nil
}

func firstWrong(errs []error) error {
	for _, err := range errs {
		if errors.Is(err, errWrongResult) {
			return err
		}
	}
	return nil
}

func commitID() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *report) write(w io.Writer) error {
	cfg := r.cfg
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced (per-layer)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench %s run: workload=%s seed=%d seconds=%d\n", mode, cfg.spec.name, cfg.seed, cfg.seconds)
	fmt.Fprintf(&b, "# env: GOMAXPROCS=%d nproc=%d go=%s commit=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commitID())
	fmt.Fprintf(&b, "# shape: %d slots x rf %d, %d closed-loop clients sharing one kv client, flush policy: %s\n", numSlots, rf, clients, cfg.spec.flushPolicy())
	fmt.Fprintf(&b, "# set-up seconds: %.3f\n", r.setups)
	if r.stealOK {
		fmt.Fprintf(&b, "# host CPU steal during the run: %.2f%%\n", 100*r.steal)
	}
	res := r.res
	errRate, _ := ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(&b, "ops attempted=%d completed=%d failed=%d error_rate=%.6f conflict_retries=%d\n", res.attempted, res.done, res.failed, errRate, res.retries)
	if len(res.windows) > 0 {
		b.WriteString("host steal % per window:")
		for _, w := range res.windows {
			fmt.Fprintf(&b, " %.1f", 100*w.steal)
		}
		keep := steadiest(res.windows)
		var reads, writes int
		for _, k := range keep {
			reads += len(res.windows[k].read)
			writes += len(res.windows[k].write)
		}
		fmt.Fprintf(&b, "; figures pool windows %v (%d reads, %d writes)\n", keep, reads, writes)
	}
	fmt.Fprintf(&b, "warm-up ops (not measured) attempted=%d failed=%d\n", r.warm.attempted, r.warm.failed)
	fmt.Fprintf(&b, "samples read=%d write=%d (highest percentile with 10 samples beyond it: read p%v, write p%v)\n",
		len(res.lat[sRead]), len(res.lat[sWrite]),
		highestSupported(len(res.lat[sRead]), tailPercentiles...), highestSupported(len(res.lat[sWrite]), tailPercentiles...))
	for _, err := range append(r.warm.errs, res.errs...) {
		fmt.Fprintf(&b, "failed op: %v\n", err)
	}
	if cfg.trace {
		fmt.Fprintf(&b, "probes ping=%d kvclient.read=%d kvserver.read=%d 2pc=%d rf1=%d failed=%d\n",
			res.probes[sPing], res.probes[sKVRead], res.probes[sStoreRead], res.probes[sKV2PC], res.probes[sRF1Commit], res.probeFailed)
	}
	out := map[string]any{}
	for _, m := range r.metrics {
		note := ""
		if m.info {
			note = " (informational: not in the result line)"
		}
		if m.ok {
			fmt.Fprintf(&b, "metric %s = %.4f %s%s\n", m.name, m.value, m.unit, note)
		} else {
			fmt.Fprintf(&b, "metric %s = n/a (%s) %s%s\n", m.name, m.why, m.unit, note)
		}
		if m.info {
			continue
		}
		// The JSON line carries a number for every metric; 0 stands for
		// n/a, which the line above spells out.
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(&b, "check %s: FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(&b, "check %s: ok\n", c.name)
		}
	}
	fmt.Fprintf(&b, "replica full-history digests: %s\n", r.historyNote)
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
