package oracle

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stats is a snapshot of the status oracle's counters. TmaxAborts counts
// the pessimistic aborts of Algorithm 3 line 8 — transactions aborted not
// because a conflict was observed but because their snapshot predates the
// retained lastCommit window; the paper argues these are negligible when
// Tmax - Ts(txn) is much larger than the maximum commit time.
// Commits and the abort counters are per transaction regardless of how
// transactions reach the oracle: a CommitBatch of 64 requests moves the
// per-transaction counters 64 times. Batches counts CommitBatch invocations
// that carried at least one write transaction (serial Commit is a batch of
// one), and BatchSizeAvg is the mean number of write transactions per such
// batch — together they describe the batch-size distribution the coalescing
// layers achieve.
// The read side mirrors the commit side: Queries counts status lookups per
// lookup regardless of how they reach the oracle (a QueryBatch of 64 moves
// it 64 times; serial Query is a batch of one), QueryBatches counts
// QueryBatch invocations carrying at least one lookup, and
// QueryBatchSizeAvg is the mean lookups per batch — the batch-size
// distribution the read-coalescing layers achieve.
// The availability counters describe checkpointing and bounded recovery:
// Checkpoints counts checkpoint records written, LastCheckpointTS is the
// timestamp-oracle reservation bound the latest checkpoint carried (the
// epoch fence a promoted standby resumes from), and ReplayedRecords /
// RecoveryNanos report how much WAL the last Recover actually replayed and
// how long it took — with periodic checkpoints, both are bounded by the
// checkpoint interval rather than the history length.
// The partition counters describe this oracle's role in the two-phase
// partitioned commit protocol (prepare.go): Prepares counts prepare
// requests conflict-checked here (each cross-partition transaction counts
// once per covering partition), PrepareNoVotes the prepares that voted no,
// Decides the coordinator verdicts applied, DecideWaitAvg the mean
// prepare→decide latency in nanoseconds (the window a transaction's rows
// stay parked in the prepared set), and CrossPartitionRatio the fraction
// of this partition's write transactions that arrived through the
// two-phase path rather than a one-shot commit batch.
type Stats struct {
	Begins              int64
	Commits             int64
	ReadOnlyCommits     int64
	ConflictAborts      int64
	TmaxAborts          int64
	ExplicitAborts      int64
	Batches             int64
	BatchSizeAvg        float64
	Queries             int64
	QueryBatches        int64
	QueryBatchSizeAvg   float64
	Checkpoints         int64
	LastCheckpointTS    int64
	ReplayedRecords     int64
	RecoveryNanos       int64
	Prepares            int64
	PrepareNoVotes      int64
	Decides             int64
	DecideWaitAvg       float64
	CrossPartitionRatio float64
	// Allocation-discipline counters. TableLoadFactor is the live-key /
	// slot ratio of the open-addressed lastCommit shards and Rehashes the
	// number of incremental growth passes they have run; together they say
	// whether the conflict-check scan lengths are healthy.
	TableLoadFactor float64
	Rehashes        int64
	// SliceLoads is the per-key-range write-load histogram (LoadBuckets
	// cumulative counters over Config.LoadSpan): every submitted write row
	// of the commit, one-shot and prepare paths increments its range's
	// bucket. The elastic rebalancer differences successive snapshots to
	// find hot ranges.
	SliceLoads []int64
}

// AbortRate returns aborts / (commits + aborts), the quantity plotted in
// Figures 8 and 10. Read-only commits are included in the denominator
// because the paper's mixed workload counts them as transactions.
func (s Stats) AbortRate() float64 {
	aborts := float64(s.ConflictAborts + s.ExplicitAborts)
	total := aborts + float64(s.Commits+s.ReadOnlyCommits)
	if total == 0 {
		return 0
	}
	return aborts / total
}

type statsCollector struct {
	mu          sync.Mutex
	s           Stats
	batchTxns   int64 // write transactions across all batches
	decideNanos int64 // summed prepare→decide wait across all decides

	// The read-path counters are atomics, not mutex-guarded: status
	// lookups are the contention-free path the striped commit table
	// exists for, and a shared stats mutex would re-serialize it.
	queries      atomic.Int64
	queryBatches atomic.Int64
}

func (c *statsCollector) begin() {
	c.mu.Lock()
	c.s.Begins++
	c.mu.Unlock()
}

// begins records a block allocation of n start timestamps.
func (c *statsCollector) begins(n int64) {
	c.mu.Lock()
	c.s.Begins += n
	c.mu.Unlock()
}

// applyPrepares records one PrepareBatch invocation: n prepares checked,
// noVotes of them rejected.
func (c *statsCollector) applyPrepares(n, noVotes int64) {
	c.mu.Lock()
	c.s.Prepares += n
	c.s.PrepareNoVotes += noVotes
	c.mu.Unlock()
}

// applyDecides records one DecideBatch invocation: commits and aborts
// applied, the summed prepare→decide wait, and the decision count.
func (c *statsCollector) applyDecides(commits, aborts, waitNanos, n int64) {
	c.mu.Lock()
	c.s.Commits += commits
	c.s.ConflictAborts += aborts
	c.s.Decides += n
	c.decideNanos += waitNanos
	c.mu.Unlock()
}

func (c *statsCollector) explicitAbort() {
	c.mu.Lock()
	c.s.ExplicitAborts++
	c.mu.Unlock()
}

// applyBatch records one CommitBatch invocation's whole outcome — per-
// transaction counters plus the batch-size distribution — under a single
// lock acquisition, so a batch of 64 costs one mutex pass, not 65.
// writeTxns == 0 (an all-read-only batch) does not count as a batch.
func (c *statsCollector) applyBatch(readOnly, commits, conflictAborts, tmaxAborts, writeTxns int64) {
	c.mu.Lock()
	c.s.ReadOnlyCommits += readOnly
	c.s.Commits += commits
	c.s.ConflictAborts += conflictAborts
	c.s.TmaxAborts += tmaxAborts
	if writeTxns > 0 {
		c.s.Batches++
		c.batchTxns += writeTxns
	}
	c.mu.Unlock()
}

// applyQueryBatch records one QueryBatch invocation of n lookups (serial
// Query is a batch of one).
func (c *statsCollector) applyQueryBatch(n int64) {
	c.queries.Add(n)
	c.queryBatches.Add(1)
}

// checkpointed records one written checkpoint and the TSO bound it carried.
func (c *statsCollector) checkpointed(bound uint64) {
	c.mu.Lock()
	c.s.Checkpoints++
	c.s.LastCheckpointTS = int64(bound)
	c.mu.Unlock()
}

// setRecovery records what Recover replayed: the post-checkpoint record
// count, the recovered checkpoint's TSO bound (when one was found), and
// the wall time the whole recovery took.
func (c *statsCollector) setRecovery(replayed int64, bound uint64, found bool, d time.Duration) {
	c.mu.Lock()
	c.s.ReplayedRecords = replayed
	c.s.RecoveryNanos = d.Nanoseconds()
	if found {
		c.s.LastCheckpointTS = int64(bound)
	}
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	if s.Batches > 0 {
		s.BatchSizeAvg = float64(c.batchTxns) / float64(s.Batches)
	}
	s.Queries = c.queries.Load()
	s.QueryBatches = c.queryBatches.Load()
	if s.QueryBatches > 0 {
		s.QueryBatchSizeAvg = float64(s.Queries) / float64(s.QueryBatches)
	}
	if s.Decides > 0 {
		s.DecideWaitAvg = float64(c.decideNanos) / float64(s.Decides)
	}
	if total := s.Prepares + c.batchTxns; total > 0 {
		s.CrossPartitionRatio = float64(s.Prepares) / float64(total)
	}
	return s
}

// statsFields is the one table that names each Stats field on the metrics
// plane: MetricsSource emits from it and StatsFromSamples parses with it, so
// a field travels over the wire exactly when it has a row here. int64
// fields travel as counters, float64 fields as gauges; SliceLoads, the one
// vector, travels beside them as one sliceFamily counter per bucket.
var statsFields = [...]struct {
	name  string
	field func(*Stats) any // *int64 or *float64
}{
	{"oracle_begins_total", func(s *Stats) any { return &s.Begins }},
	{"oracle_commits_total", func(s *Stats) any { return &s.Commits }},
	{"oracle_readonly_commits_total", func(s *Stats) any { return &s.ReadOnlyCommits }},
	{"oracle_conflict_aborts_total", func(s *Stats) any { return &s.ConflictAborts }},
	{"oracle_tmax_aborts_total", func(s *Stats) any { return &s.TmaxAborts }},
	{"oracle_explicit_aborts_total", func(s *Stats) any { return &s.ExplicitAborts }},
	{"oracle_commit_batches_total", func(s *Stats) any { return &s.Batches }},
	{"oracle_commit_batch_size_avg", func(s *Stats) any { return &s.BatchSizeAvg }},
	{"oracle_queries_total", func(s *Stats) any { return &s.Queries }},
	{"oracle_query_batches_total", func(s *Stats) any { return &s.QueryBatches }},
	{"oracle_query_batch_size_avg", func(s *Stats) any { return &s.QueryBatchSizeAvg }},
	{"oracle_checkpoints_total", func(s *Stats) any { return &s.Checkpoints }},
	{"oracle_last_checkpoint_ts", func(s *Stats) any { return &s.LastCheckpointTS }},
	{"oracle_replayed_records", func(s *Stats) any { return &s.ReplayedRecords }},
	{"oracle_recovery_nanos", func(s *Stats) any { return &s.RecoveryNanos }},
	{"oracle_prepares_total", func(s *Stats) any { return &s.Prepares }},
	{"oracle_prepare_novotes_total", func(s *Stats) any { return &s.PrepareNoVotes }},
	{"oracle_decides_total", func(s *Stats) any { return &s.Decides }},
	{"oracle_decide_wait_avg_ns", func(s *Stats) any { return &s.DecideWaitAvg }},
	{"oracle_cross_partition_ratio", func(s *Stats) any { return &s.CrossPartitionRatio }},
	{"oracle_table_load_factor", func(s *Stats) any { return &s.TableLoadFactor }},
	{"oracle_table_rehashes_total", func(s *Stats) any { return &s.Rehashes }},
}

// sliceFamily carries SliceLoads: bucket i is the counter
// oracle_slice_writes_total{slice="i"}.
const sliceFamily = "oracle_slice_writes_total"

// statsIndex maps a sample name to its statsFields row.
var statsIndex = func() map[string]int {
	m := make(map[string]int, len(statsFields))
	for i, f := range statsFields {
		m[f.name] = i
	}
	return m
}()

// emitStats renders st as samples through the statsFields table.
func emitStats(st Stats, emit func(metrics.Sample)) {
	for _, f := range statsFields {
		switch p := f.field(&st).(type) {
		case *int64:
			emit(metrics.C(f.name, *p))
		case *float64:
			emit(metrics.G(f.name, *p))
		}
	}
	for i, v := range st.SliceLoads {
		emit(metrics.C(sliceFamily+`{slice="`+strconv.Itoa(i)+`"}`, v))
	}
}

// MetricsSource adapts the oracle's counters to the self-describing metrics
// registry; StatsFromSamples turns the gathered samples back into Stats.
func (s *StatusOracle) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) { emitStats(s.Stats(), emit) }
}

// StatsFromSamples rebuilds an oracle's Stats from a gathered sample set
// (Registry.Gather, or a remote server's registry over the wire). Samples
// of other subsystems are ignored. A set without any oracle sample is an
// error — the server has no oracle installed (a group follower, say) — so
// callers never mistake it for an idle oracle.
func StatsFromSamples(samples []metrics.Sample) (Stats, error) {
	var st Stats
	found := false
	for _, smp := range samples {
		if i, ok := statsIndex[smp.Name]; ok {
			switch p := statsFields[i].field(&st).(type) {
			case *int64:
				if smp.Kind != metrics.KindCounter {
					return Stats{}, fmt.Errorf("oracle: sample %s is not a counter", smp.Name)
				}
				*p = smp.Value
			case *float64:
				if smp.Kind != metrics.KindGauge {
					return Stats{}, fmt.Errorf("oracle: sample %s is not a gauge", smp.Name)
				}
				*p = smp.Gauge
			}
			found = true
			continue
		}
		label, ok := strings.CutPrefix(smp.Name, sliceFamily+`{slice="`)
		if !ok {
			continue
		}
		label, ok = strings.CutSuffix(label, `"}`)
		b, err := strconv.Atoi(label)
		if !ok || err != nil || b < 0 || b >= LoadBuckets || smp.Kind != metrics.KindCounter {
			return Stats{}, fmt.Errorf("oracle: malformed slice-load sample %s", smp.Name)
		}
		if st.SliceLoads == nil {
			st.SliceLoads = make([]int64, LoadBuckets)
		}
		st.SliceLoads[b] = smp.Value
		found = true
	}
	if !found {
		return Stats{}, errors.New("oracle: no oracle counters in the sample set (no oracle installed)")
	}
	return st, nil
}
