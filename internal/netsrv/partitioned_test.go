package netsrv

import (
	"reflect"
	"testing"

	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/tso"
)

// startPartitionServers boots n partition servers over in-process oracles,
// each fenced by an epoch-1 routing table over router. Partition 0 owns the
// shared timestamp stream; the others never allocate timestamps (their
// clocks exist only to satisfy the oracle constructor).
func startPartitionServers(t *testing.T, n int, engine oracle.Engine, router partition.Router) ([]string, []*Server, []*oracle.StatusOracle) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	oracles := make([]*oracle.StatusOracle, n)
	for i := 0; i < n; i++ {
		so, err := oracle.New(oracle.Config{Engine: engine, TSO: tso.New(0, nil)})
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		srv := NewServer(so)
		srv.Logf = nil
		srv.PartitionID = i
		srv.Partitions = n
		srv.SetRouting(partition.RoutingTable{Epoch: 1, Router: router})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
		servers[i] = srv
		oracles[i] = so
	}
	return addrs, servers, oracles
}

// TestPartitionedClient runs the full wire path: a 3-partition deployment,
// single- and cross-partition commits, merged status queries, and the
// misrouting guard.
func TestPartitionedClient(t *testing.T) {
	router := partition.NewHashRouter(3)
	addrs, _, oracles := startPartitionServers(t, 3, oracle.WSI, router)
	pc, err := DialPartitioned(oracle.WSI, router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()

	// Single-partition commit: rows 0 and 3 both hash to partition 0.
	t1, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	tOld, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := pc.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{0, 3}})
	if err != nil {
		t.Fatalf("single commit: %v", err)
	}
	if !res.Committed || res.CommitTS <= t1 {
		t.Fatalf("single commit result %+v", res)
	}
	if st := oracles[0].Query(t1); st.Status != oracle.StatusCommitted {
		t.Fatalf("owner partition status %+v", st)
	}

	// Cross-partition commit: rows 1 and 2 live on partitions 1 and 2.
	t2, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res2, err := pc.Commit(oracle.CommitRequest{StartTS: t2, WriteSet: []oracle.RowID{1, 2}})
	if err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	if !res2.Committed {
		t.Fatalf("cross commit aborted")
	}
	for _, p := range []int{1, 2} {
		if st := oracles[p].Query(t2); st.Status != oracle.StatusCommitted || st.CommitTS != res2.CommitTS {
			t.Fatalf("partition %d status %+v, want committed at %d", p, st, res2.CommitTS)
		}
	}
	// Merged query through the wire answers for both transactions.
	sts := pc.QueryBatch([]uint64{t1, t2})
	if sts[0].Status != oracle.StatusCommitted || sts[1].Status != oracle.StatusCommitted {
		t.Fatalf("merged statuses %+v", sts)
	}

	// WSI conflict across the wire: tOld read row 1 before t2 wrote it.
	resC, err := pc.Commit(oracle.CommitRequest{StartTS: tOld, WriteSet: []oracle.RowID{5}, ReadSet: []oracle.RowID{1, 2}})
	if err != nil {
		t.Fatalf("conflict commit: %v", err)
	}
	if resC.Committed {
		t.Fatalf("cross-partition read-write conflict missed over the wire")
	}

	// Stats carry the partition counters over the metrics registry.
	st1, err := pc.Clients()[1].Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st1.Prepares == 0 || st1.Decides == 0 {
		t.Fatalf("partition 1 stats missing prepare/decide counters: %+v", st1)
	}
	if st1.CrossPartitionRatio != 1 {
		t.Fatalf("partition 1 cross ratio %v, want 1 (it only saw two-phase traffic)", st1.CrossPartitionRatio)
	}

	// ResolveStatus answers from the coordinator's decision log.
	rs, err := pc.ResolveStatus(t2)
	if err != nil || rs.Status != oracle.StatusCommitted || rs.CommitTS != res2.CommitTS {
		t.Fatalf("resolve status %+v err=%v", rs, err)
	}
}

// TestPartitionedStatsCarrySliceLoads: a coordinator's per-partition Stats
// travel over the wire (Client.Stats parses each server's registry), and the
// elastic rebalancer needs their SliceLoads to equal every partition's own
// in-process histogram.
func TestPartitionedStatsCarrySliceLoads(t *testing.T) {
	router := partition.NewHashRouter(3)
	addrs, _, oracles := startPartitionServers(t, 3, oracle.WSI, router)
	pc, err := DialPartitioned(oracle.WSI, router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	// Rows spread over the whole id space (bucket = top 6 bits), with
	// both single- and cross-partition write sets.
	row := func(i int) oracle.RowID { return oracle.RowID(uint64(i%oracle.LoadBuckets)<<58 | uint64(i)) }
	for i := 0; i < 60; i++ {
		ts, err := pc.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		ws := []oracle.RowID{row(i)}
		if i%2 == 0 {
			ws = append(ws, row(i+1))
		}
		if _, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: ws}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := pc.Stats()
	for i, so := range oracles {
		want := so.Stats().SliceLoads
		var writes int64
		for _, v := range want {
			writes += v
		}
		if writes == 0 {
			t.Fatalf("partition %d saw no writes; the test drives nothing", i)
		}
		if got := st.Partitions[i].SliceLoads; !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d SliceLoads over the wire\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestPartitionedMisroutingGuard: a partition server rejects one-shot and
// prepare slices carrying rows its routing table assigns elsewhere, with a
// redirect carrying that table's epoch.
func TestPartitionedMisroutingGuard(t *testing.T) {
	router := partition.NewHashRouter(2)
	addrs, _, _ := startPartitionServers(t, 2, oracle.WSI, router)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ts, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Row 1 belongs to partition 1; partition 0 must redirect it.
	misrouted := []oracle.PrepareRequest{{StartTS: ts, CommitTS: ts + 1, WriteSet: []oracle.RowID{1}}}
	_, err = c.CommitAtBatch(misrouted)
	if mr := partition.AsMisroute(err); mr == nil || mr.Epoch != 1 {
		t.Fatalf("misrouted one-shot err = %v, want a misroute at epoch 1", err)
	}
	_, err = c.PrepareBatch(misrouted)
	if mr := partition.AsMisroute(err); mr == nil || mr.Epoch != 1 {
		t.Fatalf("misrouted prepare err = %v, want a misroute at epoch 1", err)
	}
	// Correctly routed rows pass.
	res, err := c.CommitAtBatch([]oracle.PrepareRequest{{StartTS: ts, CommitTS: ts + 1, WriteSet: []oracle.RowID{2}}})
	if err != nil || !res[0].Committed {
		t.Fatalf("routed one-shot res=%+v err=%v", res, err)
	}
}

// TestPartitionedSIForeignReads: under SI the read set plays no part in
// the conflict check and may span foreign partitions; the coordinator
// must not ship it to the owning partition, whose ownership guard would
// otherwise reject the whole commit (regression).
func TestPartitionedSIForeignReads(t *testing.T) {
	router := partition.NewHashRouter(2)
	addrs, _, _ := startPartitionServers(t, 2, oracle.SI, router)
	pc, err := DialPartitioned(oracle.SI, router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	ts, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Writes on partition 0 (row 2), reads on partition 1 (row 1).
	res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{2}, ReadSet: []oracle.RowID{1}})
	if err != nil {
		t.Fatalf("SI commit with foreign reads: %v", err)
	}
	if !res.Committed {
		t.Fatalf("SI commit with foreign reads aborted: %+v", res)
	}
}
