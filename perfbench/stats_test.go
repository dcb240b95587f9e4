package main

import (
	"testing"
	"time"
)

func TestPercentileRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 1, 1},
		{50, 2, 1},
		{50, 3, 2},
		{50, 100, 50},
		{99, 100, 99},
		{99, 1000, 990},
		{99, 1001, 991},
		{100, 7, 7},
		{0.1, 10, 1},
	} {
		if got := percentileRank(c.p, c.n); got != c.want {
			t.Errorf("percentileRank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestSupportNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 999, false}, // rank 990: 9 beyond
		{99, 1000, true}, // rank 990: 10 beyond
		{99, 0, false},
		{90, 100, true}, // rank 90: 10 beyond
		{90, 99, false},
		{50, 20, true},
		{50, 19, false},
	} {
		if got := supports(c.p, c.n); got != c.want {
			t.Errorf("supports(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if got := highestSupported(500, 50, 90, 95, 99, 99.9); got != 95 {
		t.Errorf("highestSupported(500) = %v, want 95", got)
	}
	if got := highestSupported(5, 50, 99); got != 0 {
		t.Errorf("highestSupported(5) = %v, want 0", got)
	}
}

func TestDistPercentiles(t *testing.T) {
	var a, b []time.Duration
	for i := 1; i <= 1000; i++ {
		if i%2 == 0 {
			a = append(a, time.Duration(i)*time.Microsecond)
		} else {
			b = append(b, time.Duration(i)*time.Microsecond)
		}
	}
	d := newDist(a, b)
	if v, ok := d.pctUS(50); !ok || v != 500 {
		t.Errorf("p50 = %v, %v; want 500, true", v, ok)
	}
	if v, ok := d.pctUS(99); !ok || v != 990 {
		t.Errorf("p99 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := d[:999].pctUS(99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if v, ok := d[:1].pctUS(50); !ok || v != 1 {
		t.Errorf("median of one sample = %v, %v; want 1, true", v, ok)
	}
	if _, ok := dist(nil).pctUS(50); ok {
		t.Error("median of no samples reported as supported")
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if v, ok := ratio(3, 0); ok || v != 0 {
		t.Errorf("ratio(3, 0) = %v, %v; want n/a", v, ok)
	}
	if v, ok := ratio(0, 0); ok || v != 0 {
		t.Errorf("ratio(0, 0) = %v, %v; want n/a", v, ok)
	}
	if v, ok := ratio(0, 4); !ok || v != 0 {
		t.Errorf("ratio(0, 4) = %v, %v; want 0, true", v, ok)
	}
	if m := rate("x", "count", 1, 0); m.ok || m.why == "" {
		t.Errorf("rate with zero denominator = %+v; want n/a with a reason", m)
	}
	// A traced run with no commits, no statements and no mirror batches
	// reports those metrics as n/a rather than dividing by zero.
	ms := perLayer(runResult{done: 10, untracedTime: time.Second, tracedTime: time.Second, doneUntraced: 5, doneTraced: 5}, counters{}, counters{})
	for _, m := range ms {
		switch m.name {
		case "sql.node_reads_per_stmt", "kvserver.fast_commit_share", "pipeline.batch_depth",
			"pipeline.mirror_batches_per_commit", "kvclient.follower_read_share", "runtime.gc_cpu_frac":
			if m.ok {
				t.Errorf("%s = %v with a zero denominator; want n/a", m.name, m.value)
			}
		case "trace.overhead_frac":
			if !m.ok || m.value != 0 {
				t.Errorf("trace.overhead_frac = %v, %v; want 0, true", m.value, m.ok)
			}
		}
	}
}

func TestSplitWindows(t *testing.T) {
	u, tr := splitWindows(5 * window)
	if u != 3*window || tr != 2*window {
		t.Errorf("splitWindows(5 windows) = %v, %v; want 3, 2 windows", u, tr)
	}
	u, tr = splitWindows(window + window/2)
	if u != window || tr != window/2 {
		t.Errorf("splitWindows(1.5 windows) = %v, %v; want 1, 0.5 windows", u, tr)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSteadiestKeepsTwoThirdsLeastStolen(t *testing.T) {
	ws := []windowStat{{steal: 0.05}, {steal: 0}, {steal: 0.2}, {steal: 0.01}, {steal: 0}, {steal: 0.3}}
	got := steadiest(ws)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("steadiest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("steadiest = %v, want %v", got, want)
		}
	}
	if got := steadiest(make([]windowStat, 12)); len(got) != 8 || got[0] != 0 || got[7] != 7 {
		t.Errorf("steadiest of 12 steal-free windows = %v, want the first 8", got)
	}
	if got := steadiest(make([]windowStat, 1)); len(got) != 1 {
		t.Errorf("steadiest of one window = %v, want it kept", got)
	}
}

func TestInWindow(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5}
	win := []int32{0, 0, 2, 2, 3}
	if got := inWindow(lat, win, 2); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("inWindow(2) = %v, want [3 4]", got)
	}
	if got := inWindow(lat, win, 1); len(got) != 0 {
		t.Errorf("inWindow(1) = %v, want none", got)
	}
}
