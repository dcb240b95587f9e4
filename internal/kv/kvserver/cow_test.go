package kvserver

import (
	"errors"
	"fmt"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// Versions are copy-on-write (see the package doc): a prepare applies
// its ops once and the commit installs that result, on the primary and
// on every backup that staged the prepare from the stream. These tests
// pin the replicated outcome and the version-chain compaction.

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := NewServer(NewStore(nil, cfg))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestStreamStagedPrepareCommitsAfterPromotion(t *testing.T) {
	primary := startTestServer(t, Config{})
	backup := startTestServer(t, Config{})
	if _, err := primary.AttachBackupMember(backup.Addr()); err != nil {
		t.Fatal(err)
	}
	ps, bs := primary.Store(), backup.Store()
	leafOID, plainOID, freshOID := kv.MakeOID(0, 1), kv.MakeOID(0, 2), kv.MakeOID(0, 3)

	// Committed history the prepare builds on, replicated as RecCommit.
	var seed []*kv.Op
	for i := 0; i < 20; i++ {
		seed = append(seed, &kv.Op{Kind: kv.OpListAdd, OID: leafOID,
			Cell: kv.Cell{Key: []byte(fmt.Sprintf("k%02d", 2*i)), Value: []byte(fmt.Sprintf("v%d", i))}})
	}
	seed = append(seed, &kv.Op{Kind: kv.OpPut, OID: plainOID, Value: kv.NewPlain([]byte("old"))})
	if _, err := ps.FastCommit(newTxID(), ps.Clock().Now(), seed); err != nil {
		t.Fatal(err)
	}

	// A replicated two-phase prepare: every delta kind on the leaf, a
	// full write, and a blind insert into an absent object.
	txid := newTxID()
	ops := []*kv.Op{
		{Kind: kv.OpListAdd, OID: leafOID, Cell: kv.Cell{Key: []byte("k05"), Value: []byte("inserted")}},
		{Kind: kv.OpListAdd, OID: leafOID, Cell: kv.Cell{Key: []byte("k10"), Value: []byte("replaced")}},
		{Kind: kv.OpListDelRange, OID: leafOID, From: []byte("k20"), To: []byte("k30")},
		{Kind: kv.OpAttrSet, OID: leafOID, Attr: 2, Num: 77},
		{Kind: kv.OpSetBounds, OID: leafOID, Low: []byte("k"), High: []byte("l")},
		{Kind: kv.OpPut, OID: plainOID, Value: kv.NewPlain([]byte("new"))},
		{Kind: kv.OpListAdd, OID: freshOID, Cell: kv.Cell{Key: []byte("only"), Value: []byte("cell")}},
	}
	proposed, err := ps.Prepare(txid, ps.Clock().Now(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.IsLocked(leafOID) || !bs.IsLocked(freshOID) {
		t.Fatal("the backup did not stage the replicated prepare")
	}

	// The old primary commits on its own; the backup is promoted and
	// receives the same decision from the coordinator.
	primary.DetachAllBackups()
	if err := ps.Commit(txid, proposed); err != nil {
		t.Fatalf("old primary commit: %v", err)
	}
	if _, err := backup.Promote(true); err != nil {
		t.Fatal(err)
	}
	if err := bs.Commit(txid, proposed); err != nil {
		t.Fatalf("promoted backup commit: %v", err)
	}

	if got, want := bs.SlotDigest(0, 1), ps.SlotDigest(0, 1); got != want {
		t.Fatalf("promoted backup digest %x, old primary %x", got, want)
	}
	for _, oid := range []kv.OID{leafOID, plainOID, freshOID} {
		want, _, err := ps.Read(oid, clock.Max)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := bs.Read(oid, clock.Max)
		if err != nil || !got.Equal(want) {
			t.Fatalf("%v on the promoted backup: %+v, %v; want %+v", oid, got, err, want)
		}
	}
	leaf, _, _ := bs.Read(leafOID, clock.Max)
	if v, ok := leaf.ListGet([]byte("k10")); !ok || string(v) != "replaced" {
		t.Fatalf("k10 = %q, %v", v, ok)
	}
	if _, ok := leaf.ListGet([]byte("k05")); !ok || leaf.NumCells() != 16 || leaf.Attrs[2] != 77 {
		t.Fatalf("leaf after commit: %d cells, attr %d", leaf.NumCells(), leaf.Attrs[2])
	}
}

func TestHotObjectKeepsNewestMaxVersions(t *testing.T) {
	const maxVersions = 8
	s := NewStore(nil, Config{MaxVersions: maxVersions, RetentionMillis: 3600 * 1000})
	oid := kv.MakeOID(0, 1)
	want := map[clock.Timestamp]*kv.Value{} // expected value at each commit
	var tss []clock.Timestamp
	expect := kv.NewSuper()
	var floor clock.Timestamp
	var refused uint64 // reads expected to be refused below the GC horizon
	for i := 0; i < 5*maxVersions; i++ {
		key, val := []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))
		ops := []*kv.Op{
			{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: key, Value: val}},
			{Kind: kv.OpAttrSet, OID: oid, Attr: 0, Num: uint64(i)},
		}
		ts, err := s.FastCommit(newTxID(), s.Clock().Now(), ops)
		if err != nil {
			t.Fatal(err)
		}
		expect = expect.Clone()
		expect.ListAdd(key, val)
		expect.Attrs[0] = uint64(i)
		want[ts] = expect
		tss = append(tss, ts)

		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		n, gcFloor := len(obj.versions), obj.gcFloor
		var stale int
		for _, v := range obj.versions[n:cap(obj.versions)] {
			if v.val != nil || v.touched != nil {
				stale++
			}
		}
		sh.mu.Unlock()
		if wantN := min(i+1, maxVersions); n != wantN {
			t.Fatalf("after %d writes: %d versions, want %d", i+1, n, wantN)
		}
		if gcFloor < floor {
			t.Fatalf("after %d writes: gcFloor fell from %v to %v", i+1, floor, gcFloor)
		}
		if i >= maxVersions && gcFloor != tss[i-maxVersions] {
			t.Fatalf("after %d writes: gcFloor %v, want the newest trimmed version %v", i+1, gcFloor, tss[i-maxVersions])
		}
		if stale > 0 {
			t.Fatalf("after %d writes: %d trimmed versions still referenced past the chain", i+1, stale)
		}
		floor = gcFloor

		for _, rts := range tss[max(0, len(tss)-maxVersions):] {
			got, vts, err := s.Read(oid, rts)
			if err != nil || vts != rts || !got.Equal(want[rts]) {
				t.Fatalf("after %d writes: read at %v = %+v @%v, %v; want %+v", i+1, rts, got, vts, err, want[rts])
			}
		}
		// A snapshot whose version was trimmed must not read the
		// object as absent: the reader is told to retry.
		for _, rts := range tss[:max(0, len(tss)-maxVersions)] {
			if got, _, err := s.Read(oid, rts); !errors.Is(err, kv.ErrConflict) {
				t.Fatalf("after %d writes: read at trimmed snapshot %v = %+v, %v; want ErrConflict", i+1, rts, got, err)
			}
			refused++
		}
		if got := s.Stats().ReadsBelowGCHorizon; got != refused {
			t.Fatalf("after %d writes: ReadsBelowGCHorizon = %d, want %d", i+1, got, refused)
		}
	}
}
