package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/sql"
	"yesquel/internal/wiki"
	"yesquel/internal/ycsb"
)

const (
	wikiPages    = 2000
	wikiLinks    = 3
	wikiEditFrac = 0.1
)

var wikiTables = []string{"page", "revision", "pagelink"}

// wikiWL runs the wiki application through SQL sessions that share one
// catalog (and so one set of DBT handles and node caches).
type wikiWL struct {
	e       *env
	cat     *sql.Catalog
	tables  []*dbt.Tree // every table and index tree of the schema
	drivers []*wikiDriver
}

func (w *wikiWL) load(ctx context.Context, e *env) error {
	w.e = e
	w.cat = sql.NewCatalog(e.c, dbt.Config{})
	db := sql.NewDBWithCatalog(e.c, w.cat)
	if err := wiki.Load(ctx, wiki.DBExecutor{DB: db}, wikiPages, wikiLinks); err != nil {
		return err
	}
	tx := e.c.Begin()
	defer tx.Abort()
	for _, name := range wikiTables {
		t, err := w.cat.GetTable(ctx, tx, name)
		if err != nil {
			return err
		}
		w.tables = append(w.tables, t.Tree)
		w.tables = append(w.tables, t.IndexTrees...)
	}
	return nil
}

func (w *wikiWL) newDriver(id int, seed int64) (driver, error) {
	ex := &timedExec{db: sql.NewDBWithCatalog(w.e.c, w.cat)}
	rng := rand.New(rand.NewSource(seed))
	d := &wikiDriver{
		ex: ex, rng: rng,
		zipf: ycsb.NewZipfian(rng, wikiPages, ycsb.DefaultTheta),
		// The worker's seed only keeps its revision ids disjoint from the
		// other client's; page and action choices come from rng.
		worker: wiki.NewWorker(ex, wikiPages, wikiEditFrac, int64(id+1)),
		acked:  make(map[int64]int64),
		maybe:  make(map[int64][]int64),
	}
	w.drivers = append(w.drivers, d)
	return d, nil
}

func (w *wikiWL) trees() []*dbt.Tree { return w.tables }

func (w *wikiWL) close() {
	if w.cat != nil {
		w.cat.Close()
	}
}

// wikiDriver is one closed-loop client: 90% page renders, 10% edits,
// zipfian page choice.
type wikiDriver struct {
	ex     *timedExec
	rng    *rand.Rand
	zipf   *ycsb.Zipfian
	worker *wiki.Worker
	// acked holds the revision this client last pointed each page at
	// and had acknowledged; maybe the ones whose outcome is unknown.
	acked map[int64]int64
	maybe map[int64][]int64
}

func (d *wikiDriver) step(ctx context.Context, rec *recorder, traced bool) (sample, error) {
	d.ex.rec, d.ex.traced = rec, traced
	page := d.zipf.Next()
	if d.rng.Float64() >= wikiEditFrac {
		return sRead, wikiErr(d.worker.Read(ctx, page))
	}
	d.ex.latest = nil
	err := wikiErr(d.worker.Edit(ctx, page))
	switch {
	case err == nil:
		d.acked[page] = d.ex.latest.I
	case d.ex.latest != nil && errors.Is(err, kv.ErrUncertain):
		d.maybe[page] = append(d.maybe[page], d.ex.latest.I)
	}
	return sWrite, err
}

// wikiErr marks the wiki package's own result checks (a page or its
// latest revision not found) as wrong results.
func wikiErr(err error) error {
	if err != nil && strings.HasPrefix(err.Error(), "wiki: ") {
		return fmt.Errorf("%w: %v", errWrongResult, err)
	}
	return err
}

// timedExec is the SQL endpoint the wiki worker drives: it counts
// statements, times them in traced windows, and remembers the revision
// an edit's UPDATE points its page at.
type timedExec struct {
	db     *sql.DB
	rec    *recorder
	traced bool
	latest *sql.Value
}

func (x *timedExec) Query(ctx context.Context, q string, args ...sql.Value) ([][]sql.Value, error) {
	x.rec.stmts++
	t0 := time.Now()
	rows, err := x.db.Query(ctx, q, args...)
	if x.traced && err == nil {
		x.rec.add(sSQLStmt, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	return rows.All(), nil
}

func (x *timedExec) Exec(ctx context.Context, q string, args ...sql.Value) error {
	x.rec.stmts++
	if strings.HasPrefix(q, "UPDATE page SET latest") {
		x.latest = &args[0]
	}
	t0 := time.Now()
	_, err := x.db.Exec(ctx, q, args...)
	if x.traced && err == nil {
		x.rec.add(sSQLStmt, time.Since(t0))
	}
	return err
}

// check requires every page to exist once, to point at a revision row
// that exists, and to point at its loaded revision or at one a client
// last acknowledged setting (or may have, after an uncertain commit).
func (w *wikiWL) check(ctx context.Context) error {
	db := sql.NewDBWithCatalog(w.e.c, w.cat)
	pages, err := db.Query(ctx, "SELECT id, latest FROM page")
	if err != nil {
		return fmt.Errorf("reading pages: %w", err)
	}
	revs, err := db.Query(ctx, "SELECT id FROM revision")
	if err != nil {
		return fmt.Errorf("reading revisions: %w", err)
	}
	haveRev := make(map[int64]bool, revs.Len())
	for _, r := range revs.All() {
		haveRev[r[0].I] = true
	}
	var errs []error
	seen := make(map[int64]bool, pages.Len())
	for _, r := range pages.All() {
		id, latest := r[0].I, r[1].I
		if seen[id] {
			errs = append(errs, fmt.Errorf("page %d appears twice", id))
		}
		seen[id] = true
		if !haveRev[latest] {
			errs = append(errs, fmt.Errorf("page %d: latest revision %d has no row", id, latest))
		}
		if !w.acceptable(id, latest) {
			errs = append(errs, fmt.Errorf("page %d points at revision %d, not any client's last acknowledged edit", id, latest))
		}
	}
	if len(seen) != wikiPages {
		errs = append(errs, fmt.Errorf("%d pages, want %d", len(seen), wikiPages))
	}
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Errorf("... and %d more", len(errs)-5))
	}
	return errors.Join(errs...)
}

func (w *wikiWL) acceptable(page, latest int64) bool {
	ackedBy := false
	for _, d := range w.drivers {
		if a, ok := d.acked[page]; ok {
			ackedBy = true
			if a == latest {
				return true
			}
		}
		for _, m := range d.maybe[page] {
			if m == latest {
				return true
			}
		}
	}
	// wiki.Load gives page p revision p*1000+1.
	return !ackedBy && latest == page*1000+1
}
