package main

import (
	"context"
	"sync/atomic"

	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/wal"
)

// tracedArbiter is the txn.Arbiter the benchmark hands its txn clients: it
// forwards every call to a *netsrv.Client and times it as one client-side
// round trip. It implements every optional txn interface the wire client
// does (checked by TestArbiterInterfacesMatch), so txn takes the same
// paths through it as through the bare client.
type tracedArbiter struct {
	c  *netsrv.Client
	tr *tracer
}

func (a *tracedArbiter) Begin() (uint64, error) {
	t0 := a.tr.start()
	ts, err := a.c.Begin()
	a.tr.end(pRTTBegin, t0)
	return ts, err
}

func (a *tracedArbiter) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	t0 := a.tr.start()
	res, err := a.c.Commit(req)
	a.tr.end(pRTTCommit, t0)
	return res, err
}

func (a *tracedArbiter) Abort(startTS uint64) error {
	t0 := a.tr.start()
	err := a.c.Abort(startTS)
	a.tr.end(pRTTAbort, t0)
	return err
}

func (a *tracedArbiter) Query(startTS uint64) oracle.TxnStatus {
	t0 := a.tr.start()
	st := a.c.Query(startTS)
	a.tr.end(pRTTQuery, t0)
	return st
}

func (a *tracedArbiter) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	t0 := a.tr.start()
	out := a.c.QueryBatch(startTSs)
	if t0 != 0 {
		a.tr.end(pRTTQueryBatch, t0)
		a.tr.lookups.Add(int64(len(startTSs)))
	}
	return out
}

func (a *tracedArbiter) Forget(startTS uint64) {
	t0 := a.tr.start()
	a.c.Forget(startTS)
	a.tr.end(pRTTForget, t0)
}

func (a *tracedArbiter) ResolveStatus(startTS uint64) (oracle.TxnStatus, error) {
	t0 := a.tr.start()
	st, err := a.c.ResolveStatus(startTS)
	a.tr.end(pRTTResolve, t0)
	return st, err
}

func (a *tracedArbiter) ResolveStatusCtx(ctx context.Context, startTS uint64) (oracle.TxnStatus, error) {
	t0 := a.tr.start()
	st, err := a.c.ResolveStatusCtx(ctx, startTS)
	a.tr.end(pRTTResolve, t0)
	return st, err
}

func (a *tracedArbiter) Subscribe(buffer int) *oracle.Subscription {
	return a.c.Subscribe(buffer)
}

// tracedLedger wraps one WAL replica: it times every AppendBatch (the
// fsync or the modelled bookie delay included) and counts appends and
// bytes whether tracing is on or not.
type tracedLedger struct {
	wal.Ledger
	tr      *tracer
	appends atomic.Int64
	bytes   atomic.Int64
}

func (l *tracedLedger) AppendBatch(batch []byte) (int, error) {
	t0 := l.tr.start()
	i, err := l.Ledger.AppendBatch(batch)
	l.tr.end(pWALAppend, t0)
	l.appends.Add(1)
	l.bytes.Add(int64(len(batch)))
	return i, err
}
