package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// TestSmokeEachWorkload runs every workload briefly, alternating
// untraced and traced runs, and requires every correctness check to
// pass, no operation to fail, and a well-formed result line.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up a cluster per workload")
	}
	for i, sp := range specs {
		sp, trace := sp, i%2 == 1
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{
				spec: sp, seed: 7, seconds: 2, trace: trace,
				setups: 1, warmup: 200 * time.Millisecond, walRoot: t.TempDir(),
			}
			rep, err := bench(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.checks {
				if c.err != nil {
					t.Errorf("check %s: %v", c.name, c.err)
				}
			}
			if rep.res.attempted == 0 || rep.res.failed != 0 {
				t.Errorf("attempted %d, failed %d (%v)", rep.res.attempted, rep.res.failed, rep.res.errs)
			}
			var out bytes.Buffer
			if err := rep.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, out.String())
			}
			bounded := 0
			for _, m := range rep.metrics {
				if !m.info {
					bounded++
				}
			}
			if !res.Correct || res.Attempted != rep.res.attempted || len(res.Metrics) != bounded {
				t.Errorf("result line %+v does not match the report", res)
			}
		})
	}
}

func TestCheckScan(t *testing.T) {
	cells := func(keys ...string) []kv.Cell {
		out := make([]kv.Cell, len(keys))
		for i, k := range keys {
			out[i] = kv.Cell{Key: []byte(k)}
		}
		return out
	}
	k := func(n int64) string { return string(keyName(n)) }
	last := int64(ycsbRecords - 1)
	for _, c := range []struct {
		name  string
		cells []kv.Cell
		from  int64
		limit int
		ok    bool
	}{
		{"exact", cells(k(5), k(6), k(7)), 5, 3, true},
		{"insert in place", cells(k(5), k(5)+"/1/3", k(6)), 5, 3, true},
		{"end of keyspace", cells(k(last-1), k(last), k(last)+"/0/9"), last - 1, 10, true},
		{"short", cells(k(5), k(6)), 5, 3, false},
		{"too long", cells(k(5), k(6), k(7)), 5, 2, false},
		{"missing record", cells(k(5), k(7)), 5, 2, false},
		{"duplicate", cells(k(5), k(5)), 5, 2, false},
		{"out of order", cells(k(6), k(5)), 5, 2, false},
		{"wrong start", cells(k(6), k(7)), 5, 2, false},
		{"misplaced insert", cells(k(5), k(4)+"/0/1"), 5, 2, false},
	} {
		err := checkScan(c.cells, c.from, c.limit)
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, errWrongResult)) {
			t.Errorf("%s: checkScan = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestWrittenValue(t *testing.T) {
	key := keyName(42)
	v := writtenValue(key, 1, 99)
	if len(v) != 100 || !writtenFor(v, key) {
		t.Fatalf("writtenValue = %q", v)
	}
	if writtenFor(v, keyName(43)) || writtenFor(v[:99], key) {
		t.Error("writtenFor accepts a value written under another key or truncated")
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wiki", "--seconds", "0"},
		{"--workload", "wiki", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric list in the
// repository's BENCHMARK.json in step with what a run prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	same := func(kind string, want []entry, all []metric) {
		var got []metric
		for _, m := range all {
			if !m.info {
				got = append(got, m)
			}
		}
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", kind, len(want), len(got))
			return
		}
		for i, m := range got {
			if want[i].Name != m.name || want[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), a run prints %s (%s)", kind, i, want[i].Name, want[i].Unit, m.name, m.unit)
			}
		}
	}
	res := runResult{done: 1, elapsed: time.Second, windows: make([]windowStat, 3)}
	same("end_to_end", doc.EndToEnd, endToEnd(1, res, 0))
	same("per_layer", doc.PerLayer, perLayer(res, counters{}, counters{}))
}
