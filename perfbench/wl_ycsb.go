package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/ycsb"
)

const (
	ycsbRecords = 20000
	ycsbTreeID  = 7
	loadBatch   = 16
)

// ycsbWL runs a YCSB mix directly on one DBT: no SQL.
type ycsbWL struct {
	mix     ycsb.Workload
	e       *env
	tree    *dbt.Tree
	drivers []*ycsbDriver
}

func (w *ycsbWL) load(ctx context.Context, e *env) error {
	w.e = e
	var err error
	if w.tree, err = dbt.Create(ctx, e.c, ycsbTreeID, dbt.Config{}); err != nil {
		return err
	}
	// Load through a synchronous-split handle so structural maintenance
	// runs between batches instead of aborting them. Small batches keep
	// the load fast: every staged insert into a leaf is re-applied on
	// each later read of that leaf in the same transaction.
	lt, err := dbt.OpenUnchecked(e.c, ycsbTreeID, dbt.Config{SyncSplit: true})
	if err != nil {
		return err
	}
	defer lt.Close()
	for base := 0; base < ycsbRecords; base += loadBatch {
		end := min(base+loadBatch, ycsbRecords)
		var dummy recorder
		err := commitRetry(&dummy, func() error {
			tx := e.c.Begin()
			for i := base; i < end; i++ {
				if err := lt.Put(ctx, tx, keyName(int64(i)), ycsb.Value(int64(i))); err != nil {
					tx.Abort()
					return err
				}
			}
			return tx.Commit(ctx)
		})
		if err != nil {
			return fmt.Errorf("loading records %d..%d: %w", base, end, err)
		}
		if err := lt.MaintainNow(ctx); err != nil && !errors.Is(err, kv.ErrConflict) {
			return err
		}
	}
	return nil
}

func (w *ycsbWL) newDriver(id int, seed int64) (driver, error) {
	gen, err := ycsb.NewGenerator(w.mix, ycsbRecords, seed)
	if err != nil {
		return nil, err
	}
	// A private insert keyspace keeps the generator's key range fixed;
	// insert keys are placed by the driver (see insertKey).
	gen.SetInsertBase(1)
	d := &ycsbDriver{
		w: w, id: id, gen: gen,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		acked: make(map[string][]byte),
		maybe: make(map[string][][]byte),
	}
	w.drivers = append(w.drivers, d)
	return d, nil
}

func (w *ycsbWL) trees() []*dbt.Tree { return []*dbt.Tree{w.tree} }

func (w *ycsbWL) close() {
	if w.tree != nil {
		w.tree.Close()
	}
}

// ycsbDriver is one closed-loop client of a YCSB mix.
type ycsbDriver struct {
	w   *ycsbWL
	id  int
	gen *ycsb.Generator
	rng *rand.Rand
	seq uint64
	// acked holds the last value this client wrote under each key and
	// had acknowledged; maybe holds values whose commit outcome is
	// unknown (they may or may not have been applied).
	acked map[string][]byte
	maybe map[string][][]byte
}

func (d *ycsbDriver) step(ctx context.Context, rec *recorder, traced bool) (sample, error) {
	op := d.gen.Next()
	switch op.Kind {
	case ycsb.OpRead:
		return sRead, d.read(ctx, rec, op.Key, traced)
	case ycsb.OpUpdate:
		return sWrite, d.write(ctx, rec, keyName(op.Key), traced)
	case ycsb.OpInsert:
		return sWrite, d.write(ctx, rec, d.insertKey(), traced)
	case ycsb.OpScan:
		return sRead, d.scan(ctx, rec, op.Key, op.ScanLen, traced)
	}
	return sRead, fmt.Errorf("unexpected ycsb op %v", op.Kind)
}

func (d *ycsbDriver) read(ctx context.Context, rec *recorder, n int64, traced bool) error {
	key := keyName(n)
	tx := d.w.e.c.BeginFollower()
	t0 := time.Now()
	v, err := d.w.tree.Get(ctx, tx, key)
	if traced && err == nil {
		rec.add(sDBTGet, time.Since(t0))
	}
	tx.Abort()
	if err != nil {
		return err
	}
	if !bytes.Equal(v, ycsb.Value(n)) && !writtenFor(v, key) {
		return fmt.Errorf("%w: get %s returned a value never written there", errWrongResult, key)
	}
	return nil
}

func (d *ycsbDriver) write(ctx context.Context, rec *recorder, key []byte, traced bool) error {
	d.seq++
	val := writtenValue(key, d.id, d.seq)
	c := d.w.e.c
	err := commitRetry(rec, func() error {
		tx := c.Begin()
		t0 := time.Now()
		if err := d.w.tree.Put(ctx, tx, key, val); err != nil {
			tx.Abort()
			return err
		}
		t1 := time.Now()
		err := tx.Commit(ctx)
		if traced && err == nil {
			rec.add(sDBTPut, t1.Sub(t0))
			rec.add(sKVCommit, time.Since(t1))
		}
		return err
	})
	switch {
	case err == nil:
		d.acked[string(key)] = val
	case errors.Is(err, kv.ErrUncertain):
		d.maybe[string(key)] = append(d.maybe[string(key)], val)
	}
	return err
}

func (d *ycsbDriver) scan(ctx context.Context, rec *recorder, n int64, limit int, traced bool) error {
	tx := d.w.e.c.BeginFollower()
	t0 := time.Now()
	cells, err := d.w.tree.Scan(ctx, tx, keyName(n), limit)
	if traced && err == nil {
		rec.add(sDBTScan, time.Since(t0))
	}
	tx.Abort()
	if err != nil {
		return err
	}
	return checkScan(cells, n, limit)
}

// insertKey places a new key right after a uniformly chosen loaded
// key, so inserts split leaves all over the tree.
func (d *ycsbDriver) insertKey() []byte {
	k := append(keyName(d.rng.Int63n(ycsbRecords)), '/', byte('0'+d.id), '/')
	return strconv.AppendUint(k, d.seq+1, 10)
}

var errWrongResult = errors.New("wrong result")

// keyName is ycsb.KeyName as bytes.
func keyName(n int64) []byte { return []byte(ycsb.KeyName(n)) }

// loadedKeyLen is the length of every loaded record's key.
var loadedKeyLen = len(ycsb.KeyName(0))

// writtenValue is the 100-byte value one write stores: it names the
// key, the client and the client's write sequence number, so a read
// can tell a value written under its key from anything else.
func writtenValue(key []byte, client int, seq uint64) []byte {
	v := make([]byte, 0, ycsb.ValueSize)
	v = append(v, key...)
	v = append(v, ' ', byte('0'+client), ' ')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, ' ')
	for len(v) < ycsb.ValueSize {
		v = append(v, '.')
	}
	return v
}

func writtenFor(v, key []byte) bool {
	return len(v) == ycsb.ValueSize && bytes.HasPrefix(v, key) && len(v) > len(key) && v[len(key)] == ' '
}

// checkScan verifies a scan of limit cells from loaded record n: keys
// strictly ascending, every loaded record in the covered range present
// and in order, every inserted key directly after the loaded key it was
// placed behind, and exactly limit cells unless the scan ran past the
// last loaded record.
func checkScan(cells []kv.Cell, n int64, limit int) error {
	if len(cells) > limit {
		return fmt.Errorf("%w: scan of %d returned %d cells", errWrongResult, limit, len(cells))
	}
	next := n // the loaded record expected next
	var prev []byte
	for i, c := range cells {
		if prev != nil && bytes.Compare(prev, c.Key) >= 0 {
			return fmt.Errorf("%w: scan from %d: cell %d key %q not above %q", errWrongResult, n, i, c.Key, prev)
		}
		prev = c.Key
		if len(c.Key) == loadedKeyLen {
			if want := keyName(next); !bytes.Equal(c.Key, want) {
				return fmt.Errorf("%w: scan from %d: cell %d is %q, want %q", errWrongResult, n, i, c.Key, want)
			}
			next++
			continue
		}
		if next == n || !bytes.HasPrefix(c.Key, keyName(next-1)) {
			return fmt.Errorf("%w: scan from %d: cell %d key %q is out of place", errWrongResult, n, i, c.Key)
		}
	}
	if len(cells) < limit && next != ycsbRecords {
		return fmt.Errorf("%w: scan of %d from %d stopped after %d cells at record %d", errWrongResult, limit, n, len(cells), next)
	}
	return nil
}

// check reads the whole tree at a fresh snapshot: every loaded record
// is present, every key holds its initial value or a value one of the
// clients wrote there last (or may have, after an uncertain commit),
// and every acknowledged insert is found.
func (w *ycsbWL) check(ctx context.Context) error {
	tx := w.e.c.Begin()
	defer tx.Abort()
	cells, err := w.tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if err := checkScan(cells, 0, len(cells)+1); err != nil {
		return err
	}
	got := make(map[string][]byte, len(cells))
	for _, c := range cells {
		got[string(c.Key)] = c.Value
	}
	var errs []error
	claimed := make(map[string]bool)
	for _, d := range w.drivers {
		for k := range d.acked {
			claimed[k] = true
		}
		for k := range d.maybe {
			claimed[k] = true
		}
	}
	for k := range claimed {
		v, ok := got[k]
		if !ok {
			errs = append(errs, fmt.Errorf("acknowledged write to %q is missing", k))
			continue
		}
		if !w.acceptable(k, v) {
			errs = append(errs, fmt.Errorf("%q holds %q, not any client's last acknowledged write", k, v))
		}
	}
	for k, v := range got {
		if claimed[k] {
			continue
		}
		if len(k) != loadedKeyLen {
			errs = append(errs, fmt.Errorf("key %q was never inserted by a client", k))
			continue
		}
		n, _ := strconv.ParseInt(k[len("user"):], 10, 64)
		if !bytes.Equal(v, ycsb.Value(n)) {
			errs = append(errs, fmt.Errorf("unwritten record %q changed", k))
		}
	}
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Errorf("... and %d more", len(errs)-5))
	}
	return errors.Join(errs...)
}

func (w *ycsbWL) acceptable(k string, v []byte) bool {
	ackedBy := false
	for _, d := range w.drivers {
		if a, ok := d.acked[k]; ok {
			ackedBy = true
			if bytes.Equal(a, v) {
				return true
			}
		}
		for _, m := range d.maybe[k] {
			if bytes.Equal(m, v) {
				return true
			}
		}
	}
	// A key only ever written with uncertain outcomes may still hold
	// its loaded value.
	if !ackedBy && len(k) == loadedKeyLen {
		n, _ := strconv.ParseInt(k[len("user"):], 10, 64)
		return bytes.Equal(v, ycsb.Value(n))
	}
	return false
}
