package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvserver"
)

// metric is one reported figure. ok=false means not applicable to this
// run: its layer is off the workload's path, or the run has no sample
// or denominator for it.
type metric struct {
	name, unit string
	value      float64
	ok         bool
	why        string // reason when !ok
	// info marks a figure printed for the reader but left out of the
	// result line, because its run-to-run spread is too wide to bound.
	info bool
}

// processCounters are the process's own cumulative counters, and the
// host's CPU time split from /proc/stat (zero where unavailable).
type processCounters struct {
	cpu                time.Duration // user+sys
	mallocs, bytes     uint64
	gcCycles           uint64
	hostAll, hostSteal uint64 // clock ticks
}

func readProcess() processCounters {
	var c processCounters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcCycles = uint64(ms.NumGC)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.hostAll, c.hostSteal = hostCPU()
	return c
}

// hostCPU returns the host's total and stolen CPU ticks: time a
// virtual machine's CPUs were runnable but served another guest. A run
// with much steal measured a busy host, not the program.
func hostCPU() (all, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			all += n
		}
		if i == 7 {
			steal = n
		}
	}
	return all, steal
}

// counters are the cumulative counters a traced run reads before and
// after.
type counters struct {
	processCounters
	kv            kvserver.StatsSnapshot
	dbt           dbt.StatsSnapshot
	gcCPU, allCPU float64 // seconds, from runtime/metrics
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters(e *env, trees []*dbt.Tree) counters {
	var c counters
	c.kv = e.cl.Stats()
	for _, t := range trees {
		s := t.Stats()
		c.dbt.Descents += s.Descents
		c.dbt.BackDowns += s.BackDowns
		c.dbt.CacheHits += s.CacheHits
		c.dbt.NodeReads += s.NodeReads
		c.dbt.SplitsDone += s.SplitsDone
		c.dbt.SplitConflict += s.SplitConflict
		c.dbt.Evictions += s.Evictions
	}
	c.processCounters = readProcess()
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.allCPU = samples[1].Value.Float64()
	}
	return c
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced run. Figures pool the steadiest windows (see steadiest):
// totals over most of the run, so the periodic collection cycles of a
// large heap average out.
func endToEnd(setupS float64, res runResult, heapInuse uint64) []metric {
	var ops, mallocs, bytes uint64
	var cpu time.Duration
	var reads, writes [][]time.Duration
	keep := steadiest(res.windows)
	for _, k := range keep {
		w := res.windows[k]
		ops += w.ops
		cpu += w.cpu
		mallocs += w.mallocs
		bytes += w.bytes
		reads = append(reads, w.read)
		writes = append(writes, w.write)
	}
	read, write := newDist(reads...), newDist(writes...)
	n := float64(ops)
	return []metric{
		{name: "setup_s", unit: "s", value: setupS, ok: true},
		rate("throughput_ops", "ops/s", n, float64(len(keep))*window.Seconds()),
		pct("read_p50_us", read, 50),
		pct("write_p50_us", write, 50),
		rate("cpu_us_per_op", "us", float64(cpu)/1e3, n),
		rate("allocs_per_op", "count", float64(mallocs), n),
		rate("bytes_per_op", "B", float64(bytes), n),
		{name: "heap_mb", unit: "MB", value: float64(heapInuse) / (1 << 20), ok: true},
		// The tails are set by rare stalls (collection cycles, a virtual
		// CPU descheduled by the host mid-operation): between runs of the
		// same code on a shared 2-CPU host, the spread of ten runs'
		// p99s (interquartile range over median) reached 0.25-0.5 for
		// reads and 0.3-0.4 for writes, wider than any bound a
		// regression check could use.
		info(pct("read_p99_us", read, 99)),
		info(pct("write_p99_us", write, 99)),
	}
}

func info(m metric) metric {
	m.info = true
	return m
}

// perLayer computes the per-layer metrics of a traced run. Counter
// deltas have the probes' own contributions taken out; ratios are per
// completed workload operation.
func perLayer(res runResult, before, after counters) []metric {
	kvd := subKV(after.kv, before.kv)
	// Each kvclient read probe and each direct store read probe is one
	// store read; each two-slot commit probe is a prepare and a commit
	// on both slots.
	probeReads := res.probes[sKVRead] + res.probes[sStoreRead]
	probe2PC := 2 * res.probes[sKV2PC]
	kvd.Reads = sat(kvd.Reads, probeReads)
	kvd.Prepares = sat(kvd.Prepares, probe2PC)
	kvd.Commits = sat(kvd.Commits, probe2PC)
	dd := after.dbt
	dd.NodeReads -= before.dbt.NodeReads
	dd.CacheHits -= before.dbt.CacheHits
	dd.BackDowns -= before.dbt.BackDowns
	dd.SplitsDone -= before.dbt.SplitsDone
	dd.SplitConflict -= before.dbt.SplitConflict
	dd.Evictions -= before.dbt.Evictions

	ops := float64(res.done)
	kops := ops / 1000
	commits := float64(kvd.FastCommits + kvd.Commits)
	var overhead metric
	if untraced, ok := ratio(float64(res.doneUntraced), res.untracedTime.Seconds()); ok {
		traced, _ := ratio(float64(res.doneTraced), res.tracedTime.Seconds())
		overhead = rate("trace.overhead_frac", "ratio", untraced-traced, untraced)
	} else {
		overhead = metric{name: "trace.overhead_frac", unit: "ratio", why: "no untraced window"}
	}
	sqlOff := res.stmts == 0
	commitsSeen := len(res.lat[sKVCommit]) > 0
	out := []metric{
		offPath(sqlOff, pct("sql.stmt_p50_us", res.lat[sSQLStmt], 50)),
		offPath(sqlOff, pct("sql.stmt_p99_us", res.lat[sSQLStmt], 99)),
		offPath(sqlOff, rate("sql.node_reads_per_stmt", "count", float64(dd.NodeReads), float64(res.stmts))),
		pct("dbt.get_p50_us", res.lat[sDBTGet], 50),
		pct("dbt.put_p50_us", res.lat[sDBTPut], 50),
		pct("dbt.scan_p50_us", res.lat[sDBTScan], 50),
		pct("dbt.scan_p99_us", res.lat[sDBTScan], 99),
		rate("dbt.node_reads_per_op", "count", float64(dd.NodeReads), ops),
		rate("dbt.cache_hit_ratio", "ratio", float64(dd.CacheHits), float64(dd.CacheHits+dd.NodeReads)),
		rate("dbt.backdowns_per_kop", "count", float64(dd.BackDowns), kops),
		rate("dbt.splits_per_kop", "count", float64(dd.SplitsDone), kops),
		rate("dbt.split_conflicts_per_kop", "count", float64(dd.SplitConflict), kops),
		{name: "dbt.evictions", unit: "count", value: float64(dd.Evictions), ok: true},
		pct("kvclient.read_p50_us", res.lat[sKVRead], 50),
		pct("kvclient.commit_p50_us", res.lat[sKVCommit], 50),
		pct("kvclient.commit_p99_us", res.lat[sKVCommit], 99),
		pct("kvclient.commit_2pc_p50_us", res.lat[sKV2PC], 50),
		offPath(!commitsSeen, rate("kvclient.conflict_retries_per_kop", "count", float64(res.retries), kops)),
		rate("kvclient.follower_read_share", "ratio", float64(kvd.FollowerReads), float64(kvd.Reads)),
		pct("rpc.ping_p50_us", res.lat[sPing], 50),
		pct("rpc.ping_p99_us", res.lat[sPing], 99),
		pct("kvserver.read_p50_us", res.lat[sStoreRead], 50),
		rate("kvserver.reads_per_op", "count", float64(kvd.Reads), ops),
		rate("kvserver.read_waits_per_kop", "count", float64(kvd.ReadWaits), kops),
		rate("kvserver.follower_read_waits_per_kop", "count", float64(kvd.FollowerReadWaits), kops),
		rate("kvserver.durable_read_waits_per_kop", "count", float64(kvd.DurableReadWaits), kops),
		rate("kvserver.conflicts_per_kop", "count", float64(kvd.Conflicts), kops),
		rate("kvserver.fast_commit_share", "ratio", float64(kvd.FastCommits), commits),
		rate("kvserver.gc_versions_per_kop", "count", float64(kvd.GCVersions), kops),
		rate("pipeline.batch_depth", "count", float64(kvd.MirrorBatchRecords), float64(kvd.MirrorBatches)),
		rate("pipeline.mirror_batches_per_commit", "count", float64(kvd.MirrorBatches), commits),
		pct("pipeline.rf1_commit_p50_us", res.lat[sRF1Commit], 50),
		rate("runtime.gc_cpu_frac", "ratio", after.gcCPU-before.gcCPU, after.allCPU-before.allCPU),
		rate("runtime.gc_cycles_per_kop", "count", float64(after.gcCycles-before.gcCycles), kops),
		overhead,
	}
	return out
}

func pct(name string, d dist, p float64) metric {
	m := metric{name: name, unit: "us"}
	m.value, m.ok = d.pctUS(p)
	if !m.ok {
		switch {
		case len(d) == 0:
			m.why = "no samples: layer off this workload's path"
		default:
			m.why = "too few samples for this percentile"
		}
	}
	return m
}

func rate(name, unit string, num, den float64) metric {
	m := metric{name: name, unit: unit}
	m.value, m.ok = ratio(num, den)
	if !m.ok {
		m.why = "zero denominator: nothing to divide by in this run"
	}
	return m
}

// offPath marks a metric not applicable when its layer is not on the
// workload's path (or not driven by the benchmark itself).
func offPath(off bool, m metric) metric {
	if off {
		m.value, m.ok, m.why = 0, false, "layer off this workload's path"
	}
	return m
}

func sat(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

func subKV(a, b kvserver.StatsSnapshot) kvserver.StatsSnapshot {
	return kvserver.StatsSnapshot{
		Reads:              a.Reads - b.Reads,
		ReadWaits:          a.ReadWaits - b.ReadWaits,
		Prepares:           a.Prepares - b.Prepares,
		Commits:            a.Commits - b.Commits,
		FastCommits:        a.FastCommits - b.FastCommits,
		Conflicts:          a.Conflicts - b.Conflicts,
		GCVersions:         a.GCVersions - b.GCVersions,
		MirrorBatches:      a.MirrorBatches - b.MirrorBatches,
		MirrorBatchRecords: a.MirrorBatchRecords - b.MirrorBatchRecords,
		FollowerReads:      a.FollowerReads - b.FollowerReads,
		FollowerReadWaits:  a.FollowerReadWaits - b.FollowerReadWaits,
		DurableReadWaits:   a.DurableReadWaits - b.DurableReadWaits,
	}
}
