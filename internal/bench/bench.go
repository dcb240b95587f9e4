// Package bench implements the experiments E1–E9 (All is the index):
// E1–E8 reproduce the paper's evaluation, E9 measures the replicated
// write path. Each experiment builds its own
// in-process cluster, drives a workload, and returns rows shaped like
// the corresponding table or figure in the paper's evaluation. The
// ybench command prints them; bench_test.go wires them into go test
// -bench.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Row is one line of an experiment's output table.
type Row struct {
	Cells []string
}

// Table is one experiment's result.
type Table struct {
	Title   string
	Comment string
	Header  []string
	Rows    []Row
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", t.Title)
	if t.Comment != "" {
		for _, line := range strings.Split(t.Comment, "\n") {
			fmt.Fprintf(&sb, "# %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r.Cells {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r.Cells)
	}
	return sb.String()
}

// latencies records operation durations for percentile reporting.
type latencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	if len(l.samples) < 1<<20 {
		l.samples = append(l.samples, d)
	}
	l.mu.Unlock()
}

func (l *latencies) percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func (l *latencies) mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.samples {
		sum += d
	}
	return sum / time.Duration(len(l.samples))
}

// runFor runs workers copies of fn until the duration elapses, counting
// completed operations. fn returns the number of ops it performed (or
// 0 on error, which is counted separately).
func runFor(d time.Duration, workers int, fn func(worker int) (int, error)) (ops uint64, errs uint64, elapsed time.Duration) {
	var opCount, errCount atomic.Uint64
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n, err := fn(w)
				if err != nil {
					errCount.Add(1)
					continue
				}
				opCount.Add(uint64(n))
			}
		}(w)
	}
	wg.Wait()
	return opCount.Load(), errCount.Load(), time.Since(start)
}

func opsPerSec(ops uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

func fmtF(v float64) string { return fmt.Sprintf("%.0f", v) }

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.String()
	}
}

// Params are the shared knobs of all experiments.
type Params struct {
	Duration time.Duration // per measured point
	Records  int           // dataset size
	Workers  int           // concurrent client goroutines (default per experiment)
	Servers  []int         // server counts for scaling experiments
	Verbose  bool
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.Duration == 0 {
		p.Duration = 2 * time.Second
	}
	if p.Records == 0 {
		p.Records = 10000
	}
	if p.Workers == 0 {
		p.Workers = 16
	}
	if len(p.Servers) == 0 {
		p.Servers = []int{1, 2, 4, 8}
	}
	return p
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Name  string
	Run   func(ctx context.Context, p Params) (*Table, error)
	Bench bool // include in go test -bench wiring
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "YDBT operation microbenchmark", RunE1, true},
		{"e2", "YDBT scalability with storage servers", RunE2, true},
		{"e3", "YCSB A-F: Yesquel vs NOSQL comparator", RunE3, true},
		{"e4", "Wikipedia: Yesquel vs centralized SQL", RunE4, true},
		{"e5", "Ablation of YDBT optimizations", RunE5, true},
		{"e6", "Commit latency vs participants", RunE6, true},
		{"e7", "Scan throughput vs naive DBT", RunE7, true},
		{"e8", "SQL statement microbenchmarks", RunE8, true},
		{"e9", "Replication overhead on the write path", RunE9, true},
	}
}
