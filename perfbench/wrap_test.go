package main

import (
	"reflect"
	"testing"

	"repro/internal/netsrv"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestArbiterInterfacesMatch checks that the traced arbiter satisfies
// exactly the txn interfaces the wire client does, so txn's type switches
// pick the same code paths in traced and untraced runs.
func TestArbiterInterfacesMatch(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeOf((*txn.Arbiter)(nil)).Elem(),
		reflect.TypeOf((*txn.Subscribing)(nil)).Elem(),
		reflect.TypeOf((*txn.BatchQuerier)(nil)).Elem(),
		reflect.TypeOf((*txn.Forgetting)(nil)).Elem(),
		reflect.TypeOf((*txn.StatusResolver)(nil)).Elem(),
		reflect.TypeOf((*txn.StatusResolverCtx)(nil)).Elem(),
	}
	client := reflect.TypeOf((*netsrv.Client)(nil))
	traced := reflect.TypeOf((*tracedArbiter)(nil))
	for _, it := range ifaces {
		if c, w := client.Implements(it), traced.Implements(it); c != w {
			t.Errorf("%v: *netsrv.Client implements=%v, *tracedArbiter implements=%v", it, c, w)
		}
	}
}

// TestLedgerWrapperCounts checks that the ledger wrapper forwards appends
// and counts them with tracing off.
func TestLedgerWrapperCounts(t *testing.T) {
	l := &tracedLedger{Ledger: wal.NewMemLedger(), tr: &tracer{}}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendBatch([]byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := l.NumBatches(); n != 3 || l.appends.Load() != 3 || l.bytes.Load() != 12 {
		t.Fatalf("batches=%d appends=%d bytes=%d", n, l.appends.Load(), l.bytes.Load())
	}
	if c := l.tr.hist[pWALAppend].Count(); c != 0 {
		t.Fatalf("untraced appends recorded %d samples", c)
	}
}
