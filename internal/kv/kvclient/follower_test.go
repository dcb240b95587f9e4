package kvclient_test

import (
	"context"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

// TestBeginFollowerAdvancesOnUnreadGroup pins the heartbeat's follower
// ping. BeginFollower snapshots at the minimum backup-reported frontier
// across groups, and follower reads refresh that bound only on the
// groups they touch. After a write to both slots, reads that touch
// slot 1 alone must still reach the write within a few heartbeats:
// the heartbeat refreshes slot 0's bound from its pinned backup.
func TestBeginFollowerAdvancesOnUnreadGroup(t *testing.T) {
	const heartbeat = 50 * time.Millisecond
	cl, err := cluster.StartReplicated(2, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetFollowerReads(true)
	c.StartHeartbeat(heartbeat)
	ctx := context.Background()

	oids := []kv.OID{c.NewOID(0), c.NewOID(1)}
	write := func(v string) {
		t.Helper()
		tx := c.Begin()
		for _, oid := range oids {
			tx.Put(oid, kv.NewPlain([]byte(v)))
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// readFollower reads oid in a BeginFollower transaction and reports
	// the value seen ("" for absent).
	readFollower := func(oid kv.OID) string {
		t.Helper()
		tx := c.BeginFollower()
		defer tx.Abort()
		v, err := tx.Read(ctx, oid)
		if err != nil {
			return ""
		}
		return string(v.Data)
	}

	// followerReads counts the reads group g's backups served.
	followerReads := func(g int) uint64 {
		var n uint64
		for _, b := range cl.Groups[g].Backups {
			n += b.Store().Stats().FollowerReads
		}
		return n
	}

	// Read each slot until a backup has served it the seed, so every
	// group has a backup-reported frontier.
	write("seed")
	for g, oid := range oids {
		deadline := time.Now().Add(5 * time.Second)
		for readFollower(oid) != "seed" || followerReads(g) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no backup of group %d served the seed", g)
			}
			time.Sleep(heartbeat / 5)
		}
	}

	write("after")
	deadline := time.Now().Add(40 * heartbeat)
	for {
		if got := readFollower(oids[1]); got == "after" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("BeginFollower on slot 1 stuck before the write after %v: FollowerSnapshot %v", 40*heartbeat, c.FollowerSnapshot())
		}
		time.Sleep(heartbeat / 5)
	}
}
