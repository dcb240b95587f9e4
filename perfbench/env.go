package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// Cluster shape: two slots, each a three-member quorum group — the
// deployed shape the system is built for.
const (
	numSlots = 2
	rf       = 3
	clients  = 2
)

// env is one stood-up system under test: the cluster, the one kv
// client the closed-loop clients share, and the objects the probe
// ladder reads and writes.
type env struct {
	cl     *cluster.Cluster
	c      *kvclient.Client
	walDir string

	// probeOID[client][slot] are plain objects private to one client,
	// so probe commits never conflict with each other or the workload.
	probeOID [clients][numSlots]kv.OID

	// rf1 is a single-member cluster started beside the main one in
	// traced runs: commit probes into it price replication.
	rf1    *cluster.Cluster
	rf1c   *kvclient.Client
	rf1OID [clients]kv.OID
}

// startEnv starts the cluster and its client and creates the probe
// objects. walDir, when not empty, gives every member a write-ahead
// log there (appended in commit order, never fsynced).
func startEnv(ctx context.Context, walDir string) (*env, error) {
	cfg := kvserver.Config{}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		cfg.LogPath = walDir
	}
	cl, err := cluster.StartReplicated(numSlots, rf, cfg)
	if err != nil {
		return nil, err
	}
	e := &env{cl: cl, walDir: walDir}
	if e.c, err = cl.NewClient(); err != nil {
		e.close()
		return nil, err
	}
	e.c.SetFollowerReads(true)
	tx := e.c.Begin()
	for i := range e.probeOID {
		for s := range e.probeOID[i] {
			e.probeOID[i][s] = e.c.NewOID(uint16(s))
			tx.Put(e.probeOID[i][s], kv.NewPlain([]byte("probe")))
		}
	}
	if err := tx.Commit(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("creating probe objects: %w", err)
	}
	return e, nil
}

// waitFollowerReads blocks until a backup of every slot serves a
// follower-snapshot read that sees everything committed before the
// call. Each round commits a marker to every slot's probe object, then
// reads the markers in one follower-snapshot transaction; the first
// marker it sees proves the snapshot is past the load. Committing each
// round lets the next round's replication carry the watermark, as an
// active client's traffic would, instead of waiting for an idle
// group's periodic lease renewal. Follower snapshots only move forward,
// so every later follower read sees the loaded data.
func (e *env) waitFollowerReads(ctx context.Context) error {
	initial := []byte("probe")
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; ; round++ {
		tx := e.c.Begin()
		for s := 0; s < numSlots; s++ {
			tx.Put(e.probeOID[0][s], kv.NewPlain([]byte(fmt.Sprintf("loaded %d", round))))
		}
		if err := tx.Commit(ctx); err != nil {
			return fmt.Errorf("committing a load marker: %w", err)
		}
		// One transaction reads every slot: a group's follower snapshot
		// only advances as that group serves follower reads.
		seen := 0
		tx = e.c.BeginFollower()
		for s := 0; s < numSlots; s++ {
			before := backupFollowerReads(e.cl.Groups[s])
			v, err := tx.Read(ctx, e.probeOID[0][s])
			if err != nil {
				tx.Abort()
				return fmt.Errorf("follower read of slot %d: %w", s, err)
			}
			if !bytes.Equal(v.Data, initial) && backupFollowerReads(e.cl.Groups[s]) > before {
				seen++
			}
		}
		tx.Abort()
		if seen == numSlots {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backups serve no follower read that sees the load after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func backupFollowerReads(g *cluster.Group) uint64 {
	var n uint64
	for _, b := range g.Backups {
		n += b.Store().Stats().FollowerReads
	}
	return n
}

// startRF1 starts the single-member baseline cluster and its commit
// probe objects.
func (e *env) startRF1(ctx context.Context) error {
	var err error
	if e.rf1, err = cluster.StartReplicated(1, 1, kvserver.Config{}); err != nil {
		return err
	}
	if e.rf1c, err = e.rf1.NewClient(); err != nil {
		return err
	}
	tx := e.rf1c.Begin()
	for i := range e.rf1OID {
		e.rf1OID[i] = e.rf1c.NewOID(0)
		tx.Put(e.rf1OID[i], kv.NewPlain([]byte("probe")))
	}
	return tx.Commit(ctx)
}

// quiesceDigests waits until every backup has applied its primary's
// whole replication stream, then requires every member to hold the same
// newest version of every object (SlotDigest over all routes). It also
// reports, without failing, whether the full version histories
// (StateDigest) agree: each member trims history older than the
// retention window against its own clock, so histories can differ in
// versions no snapshot may read any more.
func (e *env) quiesceDigests() (historyNote string, err error) {
	var errs []error
	histories := 0
	for s, g := range e.cl.Groups {
		p := g.Primary.Store()
		head := p.ReplSeq()
		deadline := time.Now().Add(10 * time.Second)
		for _, b := range g.Backups {
			bs := b.Store()
			for bs.ReplSeq() < head && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if got := bs.ReplSeq(); got != head {
				errs = append(errs, fmt.Errorf("slot %d backup %s at stream seq %d, primary at %d", s, b.Addr(), got, head))
				continue
			}
			for r := uint32(0); r < numSlots; r++ {
				if got, want := bs.SlotDigest(r, numSlots), p.SlotDigest(r, numSlots); got != want {
					errs = append(errs, fmt.Errorf("slot %d backup %s route %d newest-version digest %x != primary's %x", s, b.Addr(), r, got, want))
				}
			}
			if bs.StateDigest() != p.StateDigest() {
				histories++
			}
		}
	}
	historyNote = "all equal"
	if histories > 0 {
		historyNote = fmt.Sprintf("%d of %d backups differ from their primary (history trimmed by each member's own clock)", histories, numSlots*(rf-1))
	}
	return historyNote, errors.Join(errs...)
}

func (e *env) close() {
	if e.rf1c != nil {
		e.rf1c.Close()
	}
	if e.rf1 != nil {
		e.rf1.Close()
	}
	if e.c != nil {
		e.c.Close()
	}
	e.cl.Close()
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}
