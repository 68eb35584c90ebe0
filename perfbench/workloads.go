package main

import (
	"fmt"

	"repro/internal/workload"
)

// spec is one benchmark workload: the traffic mix, the keyspace it runs
// over, the WAL ledger model, and the load schedule of its phases.
type spec struct {
	name string
	why  string
	// rows is the preloaded keyspace size; zipf draws keys from a
	// scrambled zipfian instead of uniformly.
	rows int64
	mix  workload.MixConfig
	zipf bool
	// bookies selects the Appendix A ledger model (three in-memory ledgers
	// with 1 ms append latency, quorum 2) instead of one fsynced file
	// ledger with wal.DefaultConfig().
	bookies bool
	// nominal is the open-loop rate of the timed phase, in txn/s: at most
	// about a third of the workload's capacity on a machine losing a third
	// of its CPU to neighbours, so the timed phase never builds a backlog.
	nominal float64
	// ladder is the fixed ascending set of open-loop rates the SLO phase
	// offers; limitMS is the update p99 a rung must meet to pass.
	ladder  []float64
	limitMS float64
	// sessions is the fixed session count of the closed-loop phase.
	sessions int
}

// specs lists every workload. The why-sentences are recorded verbatim in
// BENCHMARK.json.
var specs = []*spec{
	{
		name:     "write-durable",
		why:      "complex mix, uniform, 200k rows, fsynced file WAL: group commit, fsync and commit coalescer dominate. nominal 2000/s; ladder 1k/2k/4k/32k; p99 limit 100 ms",
		rows:     200_000,
		mix:      workload.ComplexWorkload(),
		nominal:  2000,
		ladder:   []float64{1000, 2000, 4000, 32000},
		limitMS:  100,
		sessions: 96,
	},
	{
		name:     "read-mostly",
		why:      "80% read-only, uniform, 200k rows, same WAL: QueryBatch, query coalescer and kvstore reads dominate. nominal 2000/s; ladder 1k/2k/4k/32k; p99 limit 100 ms",
		rows:     200_000,
		mix:      workload.ReadHeavyWorkload(),
		nominal:  2000,
		ladder:   []float64{1000, 2000, 4000, 32000},
		limitMS:  100,
		sessions: 96,
	},
	{
		name:     "hot-contended",
		why:      "mixed, zipfian, 20k rows, 3 bookies 1 ms quorum 2: conflict checks and the abort path dominate. nominal 500/s; ladder 250/500/750/6k; p99 limit 100 ms",
		rows:     20_000,
		mix:      workload.MixedWorkload(),
		zipf:     true,
		bookies:  true,
		nominal:  500,
		ladder:   []float64{250, 500, 750, 6000},
		limitMS:  100,
		sessions: 64,
	},
}

func findSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator returns the key distribution of the workload.
func (sp *spec) generator() workload.Generator {
	if sp.zipf {
		return workload.NewScrambledZipfian(sp.rows)
	}
	return workload.NewUniform(sp.rows)
}
