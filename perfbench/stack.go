package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	// conns is the number of netsrv.Client connections the load process
	// opens: one per core of the 2-core machine the benchmark targets.
	conns = 2
	// regions splits the store so one compaction pass holds each region
	// lock for a short time only.
	regions = 64
	// preloadRows is the number of rows one preload transaction writes.
	preloadRows = 1000
	// preloadWorkers commit preload transactions concurrently so the WAL
	// group commit amortizes its fsyncs.
	preloadWorkers = 8
	// coalesceMax is the server's coalescer batch cap (commits and queries).
	coalesceMax = 64
)

// stack is one set-up instance of the system under test: a WSI status
// oracle with its timestamp oracle and WAL writer behind an in-process
// netsrv.Server with admission and both coalescers, reached over loopback
// by txn clients sharing one multi-version store.
type stack struct {
	sp      *spec
	ledgers []*tracedLedger
	file    *wal.FileLedger // nil with bookies
	walPath string
	writer  *wal.Writer
	so      *oracle.StatusOracle
	clock   *tso.Oracle
	srv     *netsrv.Server
	conns   []*netsrv.Client
	store   *kvstore.Store
	clients []*txn.Client
	keys    []string
}

func oracleConfig() oracle.Config { return oracle.Config{Engine: oracle.WSI} }

// openStack builds the stack for sp with its WAL under dir and preloads
// the whole keyspace through the txn clients. Every acked preload commit
// is appended to acks.
func openStack(sp *spec, dir string, tr *tracer, acks *ackLog) (st *stack, err error) {
	st = &stack{sp: sp}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	cfg := wal.DefaultConfig()
	var ledgers []wal.Ledger
	if sp.bookies {
		// Appendix A's bookie model, as in the batch and fig5
		// experiments: the 16 KiB batch cap keeps the serialized
		// 1 ms replica appends from capping throughput.
		cfg.Quorum = 2
		cfg.BatchBytes = 16 << 10
		for i := 0; i < 3; i++ {
			ml := wal.NewMemLedger()
			ml.Latency = time.Millisecond
			ledgers = append(ledgers, ml)
		}
	} else {
		st.walPath = filepath.Join(dir, "wal.log")
		st.file, err = wal.OpenFileLedger(st.walPath, true)
		if err != nil {
			return st, err
		}
		ledgers = append(ledgers, st.file)
	}
	wrapped := make([]wal.Ledger, len(ledgers))
	for i, l := range ledgers {
		tl := &tracedLedger{Ledger: l, tr: tr}
		st.ledgers = append(st.ledgers, tl)
		wrapped[i] = tl
	}
	if st.writer, err = wal.NewWriter(cfg, wrapped...); err != nil {
		return st, err
	}
	if st.so, st.clock, err = oracle.RecoverState(oracleConfig(), wrapped[0], st.writer, 0); err != nil {
		return st, err
	}
	st.srv = netsrv.NewServer(st.so)
	st.srv.Logf = func(string, ...interface{}) {}
	st.srv.CoalesceMaxBatch = coalesceMax
	st.srv.Ingress = &netsrv.IngressConfig{Tenants: 1}
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.srv.Registry().Register(st.writer.MetricsSource())
	// Stage histograms start with the timed phase.
	st.srv.SetTracing(false)

	st.store = kvstore.New(kvstore.Config{Servers: 8, SplitKeys: splitKeys(sp.rows, regions)})
	for i := 0; i < conns; i++ {
		c, err := netsrv.Dial(addr)
		if err != nil {
			return st, err
		}
		st.conns = append(st.conns, c)
		tc, err := txn.NewClient(st.store, &tracedArbiter{c: c, tr: tr}, txn.Config{Mode: txn.ModeQuery})
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, tc)
	}
	st.keys = make([]string, sp.rows)
	for i := range st.keys {
		st.keys[i] = workload.Key(int64(i))
	}
	return st, st.preload(acks)
}

// splitKeys returns n-1 boundaries cutting [0, rows) into n equal regions.
func splitKeys(rows int64, n int) []string {
	var out []string
	for i := 1; i < n; i++ {
		out = append(out, workload.Key(rows*int64(i)/int64(n)))
	}
	return out
}

// preload writes every row once through the txn clients, preloadRows rows
// per transaction.
func (st *stack) preload(acks *ackLog) error {
	chunks := make(chan int64)
	errs := make(chan error, preloadWorkers)
	var wg sync.WaitGroup
	for w := 0; w < preloadWorkers; w++ {
		wg.Add(1)
		go func(c *txn.Client) {
			defer wg.Done()
			for lo := range chunks {
				if err := st.loadChunk(c, lo, acks); err != nil {
					errs <- err
					return
				}
			}
		}(st.clients[w%len(st.clients)])
	}
	var err error
feed:
	for lo := int64(0); lo < st.sp.rows; lo += preloadRows {
		select {
		case chunks <- lo:
		case err = <-errs:
			break feed
		}
	}
	close(chunks)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return err
}

func (st *stack) loadChunk(c *txn.Client, lo int64, acks *ackLog) error {
	t, err := c.Begin()
	if err != nil {
		return err
	}
	hi := min(lo+preloadRows, st.sp.rows)
	for r := lo; r < hi; r++ {
		if err := t.Put(st.keys[r], appendValue(nil, r, 0)); err != nil {
			return err
		}
	}
	if err := t.Commit(); err != nil {
		return fmt.Errorf("preload rows %d-%d: %w", lo, hi, err)
	}
	acks.add(t.StartTS(), t.CommitTS())
	return nil
}

// close tears the stack down; the WAL directory is kept for the recovery
// check and removed by the caller.
func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	for _, c := range st.conns {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.writer != nil {
		st.writer.Close()
	}
	if st.file != nil {
		st.file.Close()
	}
}
