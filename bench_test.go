// Package repro's root benchmarks: one testing.B entry per table/figure of
// the paper's evaluation (§6) plus the ablation dimensions from DESIGN.md.
// These are the `go test -bench` counterparts of cmd/bench — reduced
// parameter sets sized for benchmarking loops; cmd/bench runs the full
// sweeps and prints the paper-format tables.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/percolator"
	"repro/internal/ssi"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// --- §6.2 microbenchmark: the per-operation costs of the real stack -----

// BenchmarkMicroStartTimestamp measures start-timestamp allocation
// (paper: 0.17 ms, amortized by block reservation — here without the
// simulated network hop, so the number reflects pure oracle cost).
func BenchmarkMicroStartTimestamp(b *testing.B) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.DefaultConfig(), ledger)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	clock := tso.New(100_000, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clock.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroCommitDecision measures the status oracle's commit check
// (Algorithm 2) in isolation — the critical section of §6.3.
func BenchmarkMicroCommitDecision(b *testing.B) {
	for _, engine := range []oracle.Engine{oracle.SI, oracle.WSI} {
		b.Run(engine.String(), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			reqs := make([]oracle.CommitRequest, 1024)
			for i := range reqs {
				ts, _ := so.Begin()
				reqs[i] = oracle.CommitRequest{StartTS: ts}
				for j := 0; j < 10; j++ {
					reqs[i].WriteSet = append(reqs[i].WriteSet, oracle.RowID(rng.Int63n(20_000_000)))
					reqs[i].ReadSet = append(reqs[i].ReadSet, oracle.RowID(rng.Int63n(20_000_000)))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				r.StartTS, _ = clock.Next()
				if _, err := so.Commit(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroReadPath measures a transactional read against the store
// (no latency injection: the algorithmic cost under the 38.8 ms disk time).
func BenchmarkMicroReadPath(b *testing.B) {
	sys, err := core.New(core.Options{Engine: core.WSI})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	seed, _ := sys.Begin()
	for i := 0; i < 1000; i++ {
		seed.Put(workload.Key(int64(i)), []byte("value"))
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	tx, _ := sys.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tx.Get(workload.Key(int64(i % 1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: status-oracle throughput under pipelined commit load -----

// BenchmarkFig5StatusOracle drives the in-memory status oracle with the
// §6.3 complex workload (rows uniform over 20M, ~10 written + ~10 read rows
// per transaction). b.N transactions are decided; -benchmem exposes the
// per-commit allocation cost that bounds the oracle's peak TPS.
func BenchmarkFig5StatusOracle(b *testing.B) {
	for _, engine := range []oracle.Engine{oracle.SI, oracle.WSI} {
		b.Run(engine.String(), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock})
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(time.Now().UnixNano()))
				mix := workload.NewMix(workload.ComplexWorkload(), workload.NewUniform(20_000_000))
				for pb.Next() {
					ts, err := so.Begin()
					if err != nil {
						b.Fatal(err)
					}
					tx := mix.Next(rng)
					req := oracle.CommitRequest{StartTS: ts}
					for _, r := range tx.WriteRows() {
						req.WriteSet = append(req.WriteSet, oracle.RowID(r))
					}
					if engine == oracle.WSI {
						for _, r := range tx.ReadRows() {
							req.ReadSet = append(req.ReadSet, oracle.RowID(r))
						}
					}
					if _, err := so.Commit(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// --- Figures 6-10: one cluster-simulation benchmark per figure ----------

// benchFigure runs the deterministic cluster simulation for a fixed
// configuration; the benchmark time measures simulator throughput, and the
// reported custom metrics carry the figure's shape (TPS, latency, aborts).
func benchFigure(b *testing.B, dist cluster.Distribution, engine oracle.Engine) {
	cfg := cluster.Defaults()
	cfg.Engine = engine
	cfg.Distribution = dist
	cfg.Rows = 1_000_000
	cfg.CacheRows = 10_000
	cfg.Clients = 160
	cfg.WarmupMS = 5_000
	cfg.MeasureMS = 20_000
	b.ResetTimer()
	var last cluster.Result
	for i := 0; i < b.N; i++ {
		r, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.TPS, "sim-TPS")
	b.ReportMetric(last.AvgLatencyMS, "sim-ms")
	b.ReportMetric(last.AbortRate*100, "abort%")
}

// BenchmarkFig6Uniform regenerates Figure 6's workload point at 160 clients.
func BenchmarkFig6Uniform(b *testing.B) {
	for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
		b.Run(engine.String(), func(b *testing.B) { benchFigure(b, cluster.Uniform, engine) })
	}
}

// BenchmarkFig7Zipfian regenerates Figure 7's point (also the Figure 8
// abort measurement, reported as the abort% metric).
func BenchmarkFig7Zipfian(b *testing.B) {
	for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
		b.Run(engine.String(), func(b *testing.B) { benchFigure(b, cluster.Zipfian, engine) })
	}
}

// BenchmarkFig9ZipfianLatest regenerates Figure 9's point (and Figure 10's
// abort measurement).
func BenchmarkFig9ZipfianLatest(b *testing.B) {
	for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
		b.Run(engine.String(), func(b *testing.B) { benchFigure(b, cluster.ZipfianLatest, engine) })
	}
}

// --- Appendix A: WAL group commit ----------------------------------------

// BenchmarkWALBatching measures Append throughput under the paper's
// 1KB/5ms group-commit policy against a 1ms-latency ledger (Appendix A's
// "batching factor" argument). The argument rests on many concurrent
// clients sharing each group commit, so at least walAppenders goroutines
// append; RunParallel alone starts only GOMAXPROCS of them, which on a
// small machine measures the ledger latency rather than the batching.
func BenchmarkWALBatching(b *testing.B) {
	const walAppenders = 64
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((walAppenders + procs - 1) / procs)
	ledger := wal.NewMemLedger()
	ledger.Latency = time.Millisecond
	w, err := wal.NewWriter(wal.DefaultConfig(), ledger)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, 100)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := w.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Batched commit pipeline ---------------------------------------------

// BenchmarkCommitBatch measures per-transaction commit cost through
// CommitBatch across batch sizes (batch-1 is the serial Commit wrapper's
// cost) and lastCommit table kinds; the amortization of shard locks and
// timestamp allocation is the headroom behind the batched network and
// client pipelines. Each benchmark op is one transaction, so ns/op is
// directly comparable across sizes. The harness reuses its request and
// result buffers and the oracle is bounded (so the tables reach their
// working-set size), making -benchmem report the commit path's own
// steady-state allocation: the open-addressed table holds it at zero.
func BenchmarkCommitBatch(b *testing.B) {
	for _, kind := range []oracle.TableKind{oracle.TableOpen, oracle.TableMap} {
		for _, size := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("table-%s/batch-%d", kind, size), func(b *testing.B) {
				clock := tso.New(0, nil)
				so, err := oracle.New(oracle.Config{
					Engine:     oracle.WSI,
					Table:      kind,
					MaxRows:    1 << 16,
					MaxCommits: 1 << 16,
					TSO:        clock,
				})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				reqs := make([]oracle.CommitRequest, size)
				for i := range reqs {
					reqs[i].WriteSet = make([]oracle.RowID, 10)
					reqs[i].ReadSet = make([]oracle.RowID, 10)
				}
				results := make([]oracle.CommitResult, size)
				b.ResetTimer()
				for done := 0; done < b.N; done += size {
					n := size
					if b.N-done < n {
						n = b.N - done
					}
					for i := 0; i < n; i++ {
						ts, err := so.Begin()
						if err != nil {
							b.Fatal(err)
						}
						reqs[i].StartTS = ts
						for j := 0; j < 10; j++ {
							reqs[i].WriteSet[j] = oracle.RowID(rng.Int63n(20_000_000))
							reqs[i].ReadSet[j] = oracle.RowID(rng.Int63n(20_000_000))
						}
					}
					if _, err := so.CommitBatchInto(reqs[:n], results[:0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCommitAsyncPipeline measures end-to-end transaction throughput of
// the client-side commit pipeliner: parallel workers keep async commits in
// flight and the pipeliner coalesces them into oracle batches.
func BenchmarkCommitAsyncPipeline(b *testing.B) {
	sys, err := core.New(core.Options{Engine: core.WSI, CommitBatchSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Keep a window of commits in flight per worker so the pipeliner
		// cuts full batches instead of timing out on stragglers.
		const window = 32
		futures := make([]<-chan txn.CommitOutcome, 0, window)
		drain := func(f <-chan txn.CommitOutcome) {
			if out := <-f; out.Err != nil && !core.IsConflict(out.Err) {
				b.Fatal(out.Err)
			}
		}
		for pb.Next() {
			tx, err := sys.Begin()
			if err != nil {
				b.Fatal(err)
			}
			k := seq.Add(1)
			if err := tx.Put(workload.Key(k%100_000), []byte("v")); err != nil {
				b.Fatal(err)
			}
			if len(futures) == window {
				drain(futures[0])
				futures = futures[1:]
			}
			futures = append(futures, tx.CommitAsync())
		}
		for _, f := range futures {
			drain(f)
		}
	})
}

// BenchmarkQueryBatch measures per-lookup status-resolution cost through
// QueryBatch across batch sizes (batch-1 is the serial Query cost); the
// amortization of commit-table lock passes is the headroom behind the
// batched read path. Each benchmark op is one lookup, so ns/op is directly
// comparable across sizes. QueryBatchInto reuses the harness's status
// buffer, so -benchmem reports the lookup path's own allocation: zero.
func BenchmarkQueryBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
			if err != nil {
				b.Fatal(err)
			}
			// Seed a populated commit table so lookups hit real entries.
			const seeded = 4096
			starts := make([]uint64, seeded)
			reqs := make([]oracle.CommitRequest, seeded)
			for i := range reqs {
				ts, err := so.Begin()
				if err != nil {
					b.Fatal(err)
				}
				starts[i] = ts
				reqs[i] = oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}
			}
			if _, err := so.CommitBatch(reqs); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			tss := make([]uint64, size)
			sts := make([]oracle.TxnStatus, size)
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				n := size
				if b.N-done < n {
					n = b.N - done
				}
				for i := 0; i < n; i++ {
					tss[i] = starts[rng.Intn(seeded)]
				}
				if n == 1 {
					so.Query(tss[0])
				} else {
					so.QueryBatchInto(tss[:n], sts[:0])
				}
			}
		})
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationShards compares the single critical section against the
// sharded variant (§6.3 future work) under parallel commit load.
func BenchmarkAblationShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(time.Now().UnixNano()))
				for pb.Next() {
					ts, err := so.Begin()
					if err != nil {
						b.Fatal(err)
					}
					req := oracle.CommitRequest{StartTS: ts}
					for j := 0; j < 10; j++ {
						req.WriteSet = append(req.WriteSet, oracle.RowID(rng.Int63n(1_000_000)))
						req.ReadSet = append(req.ReadSet, oracle.RowID(rng.Int63n(1_000_000)))
					}
					if _, err := so.Commit(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAblationEngines compares the per-commit decision cost of the
// four concurrency controls on identical request streams.
func BenchmarkAblationEngines(b *testing.B) {
	mkReq := func(rng *rand.Rand, ts uint64) oracle.CommitRequest {
		req := oracle.CommitRequest{StartTS: ts}
		for j := 0; j < 5; j++ {
			req.WriteSet = append(req.WriteSet, oracle.RowID(rng.Int63n(100_000)))
			req.ReadSet = append(req.ReadSet, oracle.RowID(rng.Int63n(100_000)))
		}
		return req
	}
	b.Run("SI", func(b *testing.B) {
		so, _ := oracle.New(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			ts, _ := so.Begin()
			if _, err := so.Commit(mkReq(rng, ts)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WSI", func(b *testing.B) {
		so, _ := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			ts, _ := so.Begin()
			if _, err := so.Commit(mkReq(rng, ts)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SSI", func(b *testing.B) {
		cert := ssi.New(tso.New(0, nil), 0)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			ts, _ := cert.Begin()
			if _, err := cert.Commit(mkReq(rng, ts)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Percolator", func(b *testing.B) {
		store := kvstore.New(kvstore.Config{})
		pc := percolator.NewClient(store, tso.New(0, nil), percolator.DefaultConfig())
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			tx, err := pc.Begin()
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				if err := tx.Put(workload.Key(rng.Int63n(100_000)), []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			_ = tx.Commit() // conflicts possible; cost is what we measure
		}
	})
}

// BenchmarkAblationCommitInfo compares read-path cost across the three
// §2.2 commit-timestamp resolution modes.
func BenchmarkAblationCommitInfo(b *testing.B) {
	for _, mode := range []txn.CommitInfoMode{txn.ModeQuery, txn.ModeReplica, txn.ModeWriteBack} {
		b.Run(mode.String(), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
			if err != nil {
				b.Fatal(err)
			}
			store := kvstore.New(kvstore.Config{})
			client, err := txn.NewClient(store, so, txn.Config{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			// Seed 100 keys, each rewritten 5 times so readers walk
			// version chains.
			for v := 0; v < 5; v++ {
				w, _ := client.Begin()
				for k := 0; k < 100; k++ {
					w.Put(workload.Key(int64(k)), []byte{byte(v)})
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			time.Sleep(5 * time.Millisecond) // let replica drain
			tx, _ := client.Begin()
			defer tx.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tx.Get(workload.Key(int64(i % 100))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistoryChecker measures the serializability checker on random
// histories — the §3 machinery used by the property tests.
func BenchmarkHistoryChecker(b *testing.B) {
	benchHistories := make([]string, 0, 16)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		var hstr string
		for t := 1; t <= 4; t++ {
			for o := 0; o < 4; o++ {
				item := string(rune('a' + rng.Intn(4)))
				if rng.Intn(2) == 0 {
					hstr += fmt.Sprintf("r%d[%s] ", t, item)
				} else {
					hstr += fmt.Sprintf("w%d[%s] ", t, item)
				}
			}
		}
		hstr += "c1 c2 c3 c4"
		benchHistories = append(benchHistories, hstr)
	}
	parsed := make([]history.History, len(benchHistories))
	for i, s := range benchHistories {
		h, err := history.Parse(s)
		if err != nil {
			b.Fatal(err)
		}
		parsed[i] = h
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		history.Serializable(parsed[i%len(parsed)])
	}
}
