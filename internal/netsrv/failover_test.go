package netsrv

import (
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// TestFailoverStatsCarriesAvailabilityCounters: Client.Stats, read off the
// server's metrics registry, round-trips the checkpoint/recovery fields.
func TestFailoverStatsCarriesAvailabilityCounters(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{BatchBytes: 512, BatchDelay: time.Millisecond}, ledger)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	so, err := oracle.New(oracle.Config{Engine: oracle.SI, WAL: w, TSO: tso.New(0, w)})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := 0; i < 10; i++ {
		ts, _ := so.Begin()
		if _, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if err := so.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	w.Flush()
	recovered, err := oracle.Recover(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)}, ledger)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	srv := NewServer(recovered)
	srv.Logf = nil
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	got, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	want := recovered.Stats()
	if got.LastCheckpointTS != want.LastCheckpointTS || got.ReplayedRecords != want.ReplayedRecords ||
		got.RecoveryNanos != want.RecoveryNanos || got.Checkpoints != want.Checkpoints {
		t.Fatalf("availability counters did not round-trip:\n got %+v\nwant %+v", got, want)
	}
	if want.LastCheckpointTS == 0 {
		t.Fatalf("recovery surfaced no checkpoint bound")
	}
}

// TestReconnectSingleAddress: a one-address client outlives its server. A
// call made while the server is down re-dials within the reconnect budget,
// succeeds once a new server listens on the same address, and the client
// keeps working there.
func TestReconnectSingleAddress(t *testing.T) {
	srv, c := startServer(t, oracle.WSI)
	so, addr := srv.oracle(), srv.Addr()
	before, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	srv.Close()
	// Let the client see the loss first, so the next call re-dials rather
	// than being sent on the dying connection (and failing in doubt).
	waitCond(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err != nil
	})

	type restart struct {
		srv *Server
		err error
	}
	restarted := make(chan restart, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv2 := NewServer(so)
		srv2.Logf = nil
		_, err := srv2.Listen(addr)
		restarted <- restart{srv2, err}
	}()
	after, err := c.Begin()
	r := <-restarted
	if r.err != nil {
		t.Fatalf("relisten on %s: %v", addr, r.err)
	}
	defer r.srv.Close()
	if err != nil {
		t.Fatalf("begin across the restart: %v", err)
	}
	if after <= before {
		t.Fatalf("timestamp %d after the restart not above %d", after, before)
	}
	res, err := c.Commit(oracle.CommitRequest{StartTS: after, WriteSet: []oracle.RowID{1}})
	if err != nil || !res.Committed {
		t.Fatalf("commit on the restarted server: %+v, %v", res, err)
	}
}

// TestReconnectSubscribeRace: Subscribe reads the live address while a
// reconnect rewrites it; under -race the two must not race.
func TestReconnectSubscribeRace(t *testing.T) {
	srvA, _ := startServer(t, oracle.WSI)
	srvB, _ := startServer(t, oracle.WSI)
	c, err := Dial(srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	srvA.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Begin()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Subscribe(1).Close()
		}
	}()
	wg.Wait()
	if _, err := c.Begin(); err != nil {
		t.Fatalf("begin after failing over to the second server: %v", err)
	}
	if got := connectedAddr(c); got != srvB.Addr() {
		t.Fatalf("client connected to %q, want %q", got, srvB.Addr())
	}
}
