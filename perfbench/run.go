package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"yesquel/internal/kv"
)

// sample names one latency series a client records.
type sample int

const (
	// End-to-end operation latencies (successful operations only).
	sRead sample = iota
	sWrite
	// Layer timings of the workload's own calls (traced windows only).
	sSQLStmt
	sDBTGet
	sDBTPut
	sDBTScan
	sKVCommit
	// Probe ladder (traced windows only).
	sKVRead
	sKV2PC
	sPing
	sStoreRead
	sRF1Commit
	nSamples
)

// recorder is one closed-loop client's private tally; the runner merges
// them after the clients stop, so recording takes no lock.
type recorder struct {
	lat [nSamples][]time.Duration
	// win[s][i] is the window lat[s][i] started in (sRead and sWrite);
	// winOps counts completed operations by start window.
	win       [sWrite + 1][]int32
	winOps    []uint64
	attempted uint64
	failed    uint64
	retries   uint64 // conflict retries of the benchmark's own commits
	stmts     uint64 // SQL statements issued
	// Completed operations by the kind of window they started in.
	doneUntraced, doneTraced uint64
	probeFailed              uint64
	wrong                    uint64  // failures that were wrong results
	errs                     []error // the first few failures, for the report
}

func (r *recorder) add(s sample, d time.Duration) { r.lat[s] = append(r.lat[s], d) }

// addOp records a completed operation that started in window w.
func (r *recorder) addOp(s sample, d time.Duration, w int) {
	r.add(s, d)
	r.win[s] = append(r.win[s], int32(w))
	for len(r.winOps) <= w {
		r.winOps = append(r.winOps, 0)
	}
	r.winOps[w]++
}

func (r *recorder) fail(err error) {
	r.failed++
	if errors.Is(err, errWrongResult) {
		r.wrong++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// driver issues one workload operation and reports which latency
// series it belongs to. traced asks it to time its calls into lower
// layers as well.
type driver interface {
	step(ctx context.Context, rec *recorder, traced bool) (sample, error)
}

// A run is divided into windows of this length. An untraced run's
// end-to-end figures pool the windows in which the host took the least
// CPU time away (see steadiest). Traced runs alternate untraced and
// traced windows, so both see the same data, heap and host; the
// throughput difference between them is the tracing overhead.
const window = 250 * time.Millisecond

// probeEvery spaces one client's probes in traced windows: sparse
// enough to leave the workload's shape alone, dense enough for a few
// hundred samples of each rung per second of traced time.
const probeEvery = 1500 * time.Microsecond

// maxCommitTries bounds conflict retries of one operation; exhausting
// them fails the operation.
const maxCommitTries = 50

// windowStat is one window of an untraced run.
type windowStat struct {
	ops            uint64
	cpu            time.Duration
	mallocs, bytes uint64
	steal          float64 // the host's stolen share of CPU time
	read, write    []time.Duration
}

// runResult is the merged tally of one measured run.
type runResult struct {
	windows      []windowStat // untraced runs only
	elapsed      time.Duration
	untracedTime time.Duration
	tracedTime   time.Duration
	lat          [nSamples]dist
	attempted    uint64
	failed       uint64
	retries      uint64
	stmts        uint64
	done         uint64
	doneUntraced uint64
	doneTraced   uint64
	probes       [nSamples]uint64 // successful probes per rung
	probeFailed  uint64
	wrong        uint64
	errs         []error
}

// runLoop drives every client in a closed loop for d: each issues its
// next operation only when the previous one has returned. With trace
// set, odd windows are traced and carry the probe ladder.
func runLoop(ctx context.Context, e *env, drivers []driver, d time.Duration, trace bool) runResult {
	recs := make([]*recorder, len(drivers))
	nwin := int((d + window - 1) / window)
	bounds := []processCounters{readProcess()}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if !trace {
		// Read the process's and the host's counters at every window
		// boundary.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= nwin; k++ {
				time.Sleep(time.Until(start.Add(min(time.Duration(k)*window, d))))
				bounds = append(bounds, readProcess())
			}
		}()
	}
	for i := range drivers {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientLoop(ctx, e, i, drivers[i], recs[i], start, deadline, trace)
		}(i)
	}
	wg.Wait()
	res := runResult{elapsed: time.Since(start)}
	if trace {
		res.untracedTime, res.tracedTime = splitWindows(d)
	} else {
		res.untracedTime = res.elapsed
	}
	for s := sample(0); s < nSamples; s++ {
		series := make([][]time.Duration, len(recs))
		for i, r := range recs {
			series[i] = r.lat[s]
			if s >= sKVRead {
				res.probes[s] += uint64(len(r.lat[s]))
			}
		}
		res.lat[s] = newDist(series...)
	}
	for _, r := range recs {
		res.attempted += r.attempted
		res.failed += r.failed
		res.retries += r.retries
		res.stmts += r.stmts
		res.doneUntraced += r.doneUntraced
		res.doneTraced += r.doneTraced
		res.probeFailed += r.probeFailed
		res.wrong += r.wrong
		res.errs = append(res.errs, r.errs...)
	}
	res.done = res.doneUntraced + res.doneTraced
	if !trace {
		res.windows = make([]windowStat, nwin)
		for k := range res.windows {
			w := &res.windows[k]
			b0, b1 := bounds[k], bounds[k+1]
			w.cpu = b1.cpu - b0.cpu
			w.mallocs, w.bytes = b1.mallocs-b0.mallocs, b1.bytes-b0.bytes
			w.steal, _ = ratio(float64(b1.hostSteal-b0.hostSteal), float64(b1.hostAll-b0.hostAll))
			for _, r := range recs {
				if k < len(r.winOps) {
					w.ops += r.winOps[k]
				}
				w.read = append(w.read, inWindow(r.lat[sRead], r.win[sRead], k)...)
				w.write = append(w.write, inWindow(r.lat[sWrite], r.win[sWrite], k)...)
			}
		}
	}
	return res
}

// inWindow returns the samples of lat that started in window k; win
// holds each sample's window, in ascending order.
func inWindow(lat []time.Duration, win []int32, k int) []time.Duration {
	lo := sort.Search(len(win), func(i int) bool { return win[i] >= int32(k) })
	hi := sort.Search(len(win), func(i int) bool { return win[i] > int32(k) })
	return lat[lo:hi]
}

// steadiest returns the indexes of the two thirds of the windows in
// which the host stole the least CPU time, in run order. On a shared
// virtual machine, steal arrives in bursts that slow everything in the
// process alike; leaving the worst windows out keeps such a burst from
// moving a run's figures, while every kept window still counts whole,
// garbage-collection cycles and all.
func steadiest(ws []windowStat) []int {
	idx := make([]int, len(ws))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ws[idx[a]].steal < ws[idx[b]].steal })
	keep := idx[:(2*len(ws)+2)/3]
	sort.Ints(keep)
	return keep
}

// splitWindows returns how much of a run of length d falls in
// untraced (even) and traced (odd) windows.
func splitWindows(d time.Duration) (untraced, traced time.Duration) {
	for w := time.Duration(0); w < d; w += window {
		n := min(window, d-w)
		if (w/window)%2 == 0 {
			untraced += n
		} else {
			traced += n
		}
	}
	return untraced, traced
}

func clientLoop(ctx context.Context, e *env, id int, drv driver, rec *recorder, start, deadline time.Time, trace bool) {
	var lastProbe time.Time
	rung := 0
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		w := int(now.Sub(start) / window)
		traced := trace && w%2 == 1
		if traced && now.Sub(lastProbe) >= probeEvery {
			probe(ctx, e, id, sKVRead+sample(rung), rec)
			rung = (rung + 1) % int(nSamples-sKVRead)
			lastProbe = now
		}
		rec.attempted++
		t0 := time.Now()
		s, err := drv.step(ctx, rec, traced)
		lat := time.Since(t0)
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.addOp(s, lat, w)
		if traced {
			rec.doneTraced++
		} else {
			rec.doneUntraced++
		}
	}
}

// probe issues one rung of the ladder that splits a point operation
// into store, transport and client time, and a commit into its
// replicated, two-slot and single-member costs.
func probe(ctx context.Context, e *env, id int, s sample, rec *recorder) {
	var err error
	t0 := time.Now()
	switch s {
	case sPing:
		err = e.c.Ping(ctx, 0)
	case sKVRead:
		tx := e.c.Begin()
		_, err = tx.Read(ctx, e.probeOID[id][0])
		tx.Abort()
	case sStoreRead:
		st := e.cl.Groups[0].Primary.Store()
		_, _, err = st.Read(e.probeOID[id][0], st.Clock().Now())
	case sKV2PC:
		tx := e.c.Begin()
		for slot := range e.probeOID[id] {
			tx.Put(e.probeOID[id][slot], kv.NewPlain([]byte("probe")))
		}
		err = tx.Commit(ctx)
	case sRF1Commit:
		tx := e.rf1c.Begin()
		tx.Put(e.rf1OID[id], kv.NewPlain([]byte("probe")))
		err = tx.Commit(ctx)
	default:
		err = errors.New("unknown probe")
	}
	if err != nil {
		rec.probeFailed++
		return
	}
	rec.add(s, time.Since(t0))
}

// commitRetry runs attempt until it commits, retrying conflicts with a
// growing backoff. Retries are counted; an exhausted budget, an
// uncertain outcome or any other error fails the operation.
func commitRetry(rec *recorder, attempt func() error) error {
	for try := 1; ; try++ {
		err := attempt()
		if err == nil || !errors.Is(err, kv.ErrConflict) || try == maxCommitTries {
			return err
		}
		rec.retries++
		time.Sleep(time.Duration(min(try, 20)) * 100 * time.Microsecond)
	}
}
