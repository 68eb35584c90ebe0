// Package cluster models the paper's experimental testbed (§6) as a
// discrete-event simulation: 25 region servers with block caches and
// disk-bound random reads, a centralized status oracle whose conflict
// decisions are computed by the real internal/oracle code, and N closed-loop
// clients running the §6.1 YCSB-style transaction mixes. It regenerates
// Figures 6–10 (latency vs. throughput and abort rate vs. throughput for
// uniform, zipfian and zipfianLatest row selection).
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/tso"
	"repro/internal/workload"
)

// Distribution selects the row-picking distribution of §6.4–6.5.
type Distribution uint8

// Row distributions.
const (
	// Uniform spreads accesses evenly (Figure 6).
	Uniform Distribution = iota
	// Zipfian concentrates on popular rows scattered over the key space
	// (Figures 7–8).
	Zipfian
	// ZipfianLatest concentrates on recently inserted rows, which sit
	// together at the tail of the key space and therefore on one region
	// server (Figures 9–10).
	ZipfianLatest
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case ZipfianLatest:
		return "zipfianLatest"
	default:
		return fmt.Sprintf("Distribution(%d)", uint8(d))
	}
}

// Config parameterizes one simulated run. The defaults (see Defaults)
// encode the testbed of §6: 25 data servers, the §6.2 operation latencies,
// and the §6.1 workload mixes.
type Config struct {
	Engine       oracle.Engine
	Distribution Distribution
	Mix          workload.MixConfig
	Clients      int

	// Topology.
	Servers int   // region servers (paper: 25)
	Rows    int64 // rows addressed by the workload (paper: 20M)

	// §6.2 operation latencies, in milliseconds of virtual time.
	ReadDiskMS  float64 // random read missing the block cache (38.8)
	ReadCacheMS float64 // read served from the block cache
	WriteMS     float64 // put (memstore + HBase WAL) (1.13)
	StartTSMS   float64 // start-timestamp round trip (0.17)
	CommitMS    float64 // commit round trip incl. BookKeeper WAL (4.1)

	// Server capacity model.
	HandlerThreads int     // concurrent request handlers per server
	CPUPerOpMS     float64 // per-message processing cost on a server
	CacheRows      int     // block-cache capacity per server, in rows

	// Status-oracle critical section service time per write-transaction
	// commit, in ms. WSI loads twice the memory items of SI (§6.3), so
	// its effective service time is scaled by WSIServiceFactor.
	SOServiceMS      float64
	WSIServiceFactor float64

	// ZipfianLatest hot-tail placement. The newest rows form a hot key
	// range; HBase splits a hot region and the balancer spreads the
	// daughters, so the tail ends up striped over several servers rather
	// than exactly one. HotTailFraction is the fraction of the key space
	// considered "recent"; HotSpreadServers is how many servers its
	// daughter regions land on.
	HotTailFraction  float64
	HotSpreadServers int

	// Commit batching. CommitBatch > 1 routes write-transaction commits
	// through a group-commit batcher: up to CommitBatch requests are
	// accumulated for at most CommitBatchDelayMS of virtual time, then
	// decided in one status-oracle batch sharing a single critical-section
	// pass and one WAL group-commit round trip (CommitMS). 0 or 1
	// reproduces the paper's one-commit-at-a-time oracle.
	CommitBatch        int
	CommitBatchDelayMS float64

	// Partitioned status oracle (§7 scale-out). Partitions > 1 replaces
	// the single status-oracle critical section with that many
	// independent ones behind a real partition.Coordinator: rows are
	// range-sliced over the key space, transactions whose rows stay in
	// one slice pay one critical-section visit and one WAL round trip
	// exactly as before, and transactions spanning slices pay a
	// prepare visit on every covering partition plus a second WAL round
	// trip (the decide). The workload switches to the slice-local cross
	// mix with CrossFraction of write transactions forced to span two
	// slices. Partitions <= 1 reproduces the centralized oracle.
	Partitions    int
	CrossFraction float64

	// Horizon control.
	WarmupMS  float64
	MeasureMS float64
	Seed      int64
}

// Defaults returns the calibrated testbed parameters. Capacity numbers
// (handler threads, cache rows, CPU cost) are fitted so the simulated
// saturation points land near the paper's (≈390 TPS uniform, ≈460 TPS
// zipfian, ≈360 TPS zipfianLatest); EXPERIMENTS.md records the fit.
func Defaults() Config {
	return Config{
		Engine:           oracle.WSI,
		Distribution:     Uniform,
		Mix:              workload.MixedWorkload(),
		Clients:          40,
		Servers:          25,
		Rows:             20_000_000,
		ReadDiskMS:       38.8,
		ReadCacheMS:      0.3,
		WriteMS:          1.13,
		StartTSMS:        0.17,
		CommitMS:         4.1,
		HandlerThreads:   5,
		CPUPerOpMS:       1.0,
		CacheRows:        60_000,
		SOServiceMS:      0.012,
		WSIServiceFactor: 1.25,
		HotTailFraction:  0.05,
		HotSpreadServers: 12,
		WarmupMS:         60_000,
		MeasureMS:        120_000,
		Seed:             1,
	}
}

// Result summarizes one run's measurement window.
type Result struct {
	Clients      int
	TPS          float64 // committed transactions per second
	AvgLatencyMS float64 // mean latency of committed transactions
	P99LatencyMS float64
	AbortRate    float64 // aborts / (commits + aborts), §6.5
	CacheHitRate float64
	Committed    int64
	Aborted      int64
	// BatchSizeAvg is the mean write transactions per oracle batch
	// (1 when commit batching is off).
	BatchSizeAvg float64
	// CrossRatio is the fraction of routed write transactions that
	// spanned several oracle partitions (0 for the centralized oracle).
	CrossRatio float64
	// Server-load imbalance over the measurement window: utilization is
	// busy-handler-time / (handlers × window). Uniform and (scrambled)
	// zipfian traffic keeps Max ≈ Mean; zipfianLatest drives Max toward
	// 1 while Mean stays low — the Figure 9 hotspot made visible.
	MeanServerUtilization float64
	MaxServerUtilization  float64
}

// txnSource abstracts the transaction generator: the §6.1 mixes for the
// centralized model, the slice-local cross mix for the partitioned one.
type txnSource interface {
	Next(r *rand.Rand) workload.Txn
}

// model is the wired-up simulation state.
type model struct {
	cfg     Config
	sim     *sim.Sim
	so      *oracle.StatusOracle
	servers []*server
	mix     txnSource
	gen     workload.Generator
	soRes   *sim.Resource
	batcher *commitBatcher // nil unless cfg.CommitBatch > 1

	// Partitioned-oracle state (cfg.Partitions > 1): the real coordinator
	// supplies decisions and timestamps, partRes models each partition's
	// independent critical section.
	co      *partition.Coordinator
	partRes []*sim.Resource

	measuring bool
	committed int64
	aborted   int64
	latency   metrics.Histogram // microseconds of virtual time
	hits      int64
	misses    int64
}

type server struct {
	handlers *sim.Resource
	cache    *kvstore.RegionServer
	busyMS   float64 // accumulated handler service time while measuring
}

// Run executes one configuration and returns its measurements.
func Run(cfg Config) (Result, error) {
	if cfg.Servers <= 0 || cfg.Clients <= 0 {
		return Result{}, fmt.Errorf("cluster: need servers and clients")
	}
	s := sim.New(cfg.Seed)
	m := &model{cfg: cfg, sim: s}
	if cfg.Partitions > 1 {
		router, err := partition.NewEvenRangeMap(cfg.Partitions, uint64(cfg.Rows))
		if err != nil {
			return Result{}, err
		}
		lc, err := partition.NewLocal(partition.LocalConfig{
			Partitions: cfg.Partitions,
			Engine:     cfg.Engine,
			Router:     router,
		})
		if err != nil {
			return Result{}, err
		}
		m.co = lc.Coordinator
		m.partRes = make([]*sim.Resource, cfg.Partitions)
		for i := range m.partRes {
			m.partRes[i] = sim.NewResource(s, 1)
		}
	} else {
		clock := tso.New(0, nil)
		so, err := oracle.New(oracle.Config{Engine: cfg.Engine, TSO: clock})
		if err != nil {
			return Result{}, err
		}
		m.so = so
		m.soRes = sim.NewResource(s, 1)
	}
	if cfg.CommitBatch > 1 {
		if cfg.Partitions > 1 {
			return Result{}, fmt.Errorf("cluster: CommitBatch and Partitions cannot be combined")
		}
		if m.cfg.CommitBatchDelayMS <= 0 {
			m.cfg.CommitBatchDelayMS = 1.0
		}
		m.batcher = &commitBatcher{m: m}
	}
	for i := 0; i < cfg.Servers; i++ {
		m.servers = append(m.servers, &server{
			handlers: sim.NewResource(s, cfg.HandlerThreads),
			cache:    kvstore.NewModelServer(i, cfg.CacheRows),
		})
	}
	switch cfg.Distribution {
	case Uniform:
		m.gen = workload.NewUniform(cfg.Rows)
	case Zipfian:
		m.gen = workload.NewScrambledZipfian(cfg.Rows)
	case ZipfianLatest:
		m.gen = workload.NewLatest(cfg.Rows - 1)
	default:
		return Result{}, fmt.Errorf("cluster: unknown distribution %v", cfg.Distribution)
	}
	if cfg.Partitions > 1 {
		// Slice-local rows with a dialable cross-partition fraction; the
		// distribution knob shapes only the centralized model.
		m.mix = workload.NewCrossMix(cfg.Mix, cfg.Partitions, cfg.CrossFraction, cfg.Rows)
	} else {
		m.mix = workload.NewMix(cfg.Mix, m.gen)
	}

	for i := 0; i < cfg.Clients; i++ {
		c := &client{m: m, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))}
		// Stagger arrivals so clients do not start in lockstep.
		s.After(float64(i)*c.rng.Float64(), c.begin)
	}

	s.RunUntil(cfg.WarmupMS)
	m.measuring = true
	s.RunUntil(cfg.WarmupMS + cfg.MeasureMS)

	res := Result{
		Clients:      cfg.Clients,
		Committed:    m.committed,
		Aborted:      m.aborted,
		TPS:          float64(m.committed) / (cfg.MeasureMS / 1000),
		AvgLatencyMS: m.latency.Mean() / 1000,
		P99LatencyMS: float64(m.latency.Quantile(0.99)) / 1000,
	}
	if total := m.committed + m.aborted; total > 0 {
		res.AbortRate = float64(m.aborted) / float64(total)
	}
	if ops := m.hits + m.misses; ops > 0 {
		res.CacheHitRate = float64(m.hits) / float64(ops)
	}
	res.BatchSizeAvg = 1
	if m.so != nil {
		if st := m.so.Stats(); st.Batches > 0 {
			res.BatchSizeAvg = st.BatchSizeAvg
		}
	}
	if m.co != nil {
		res.CrossRatio = m.co.Stats().CrossRatio()
	}
	capacityMS := float64(cfg.HandlerThreads) * cfg.MeasureMS
	var sum float64
	for _, sv := range m.servers {
		u := sv.busyMS / capacityMS
		sum += u
		if u > res.MaxServerUtilization {
			res.MaxServerUtilization = u
		}
	}
	res.MeanServerUtilization = sum / float64(len(m.servers))
	return res, nil
}

// serverOf maps a row to its region server by range partitioning:
// consecutive rows live on the same server, as HBase splits tables into
// contiguous regions. Under ZipfianLatest the hot tail of the key space is
// striped across the last HotSpreadServers servers, modelling the daughter
// regions of a split-and-rebalanced hot region; the residual concentration
// is the hotspot behind Figure 9's early saturation.
func (m *model) serverOf(row int64) *server {
	if m.cfg.Distribution == ZipfianLatest && m.cfg.HotSpreadServers > 0 {
		hotStart := int64(float64(m.cfg.Rows) * (1 - m.cfg.HotTailFraction))
		if row >= hotStart {
			k := m.cfg.HotSpreadServers
			if k > len(m.servers) {
				k = len(m.servers)
			}
			return m.servers[len(m.servers)-k+int(row%int64(k))]
		}
	}
	idx := int(row * int64(len(m.servers)) / m.cfg.Rows)
	if idx >= len(m.servers) {
		idx = len(m.servers) - 1
	}
	return m.servers[idx]
}

// rowKey renders the row's store key.
func rowKey(row int64) string { return workload.Key(row) }
