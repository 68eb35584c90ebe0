package main

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// probe names one timed boundary: a call from the benchmark's own code
// into a layer's public function.
type probe int

const (
	pTxnBegin probe = iota
	pTxnGetMulti
	pTxnPut
	pTxnCommitUpdate
	pTxnCommitReadOnly
	pRTTBegin
	pRTTCommit
	pRTTAbort
	pRTTQuery
	pRTTQueryBatch
	pRTTForget
	pRTTResolve
	pWALAppend
	numProbes
)

var probeNames = [numProbes]string{
	"txn.Client.Begin",
	"txn.Txn.GetMulti",
	"txn.Txn.Put",
	"txn.Txn.Commit (update)",
	"txn.Txn.Commit (read-only)",
	"netsrv.Client.Begin",
	"netsrv.Client.Commit",
	"netsrv.Client.Abort",
	"netsrv.Client.Query",
	"netsrv.Client.QueryBatch",
	"netsrv.Client.Forget",
	"netsrv.Client.ResolveStatus",
	"wal.Ledger.AppendBatch",
}

// tracer times probes while it is on. Off, a probe costs one atomic load;
// the wrappers and call sites are the same either way, so a traced run
// follows exactly the code paths of an untraced one.
type tracer struct {
	on   atomic.Bool
	hist [numProbes]metrics.AtomicHistogram
	// lookups counts the status lookups carried by QueryBatch calls made
	// while tracing was on.
	lookups atomic.Int64
}

// start returns the probe's start stamp, or 0 when tracing is off.
func (t *tracer) start() int64 {
	if !t.on.Load() {
		return 0
	}
	return metrics.Nanotime()
}

// end records the time since t0 under p; a zero t0 records nothing.
func (t *tracer) end(p probe, t0 int64) {
	if t0 != 0 {
		t.hist[p].Record(metrics.Nanotime() - t0)
	}
}

func (t *tracer) reset() {
	for i := range t.hist {
		t.hist[i].Reset()
	}
	t.lookups.Store(0)
}

func (t *tracer) snapshot(p probe) metrics.Histogram { return t.hist[p].Snapshot() }
