// Package ha is the availability subsystem around the centralized status
// oracle: periodic checkpointing, a hot standby, and fenced failover.
//
// The paper defends centralizing commit decisions by noting that every
// status-oracle mutation "is persisted in multiple remote storages"
// (Appendix A), so a crashed oracle — or a fresh instance — can recreate
// the memory state from the write-ahead log. That argument only carries at
// production scale if recovery is *fast* and failover is *safe*. This
// package supplies both halves:
//
//   - A Checkpointer periodically writes a commit-table snapshot record
//     through the oracle's WAL, bounding the log suffix that recovery (or
//     a cold standby) must replay to the checkpoint interval.
//
//   - A Standby tails the ledger, applying commit/abort/checkpoint
//     records into a shadow status oracle, so promotion only has to drain
//     the final few batches — near-instant, independent of history
//     length.
//
//   - A Member (group.go) runs one node of a self-healing replicated
//     group: it drives its Standby's CatchUp every poll, detects the
//     leader's lease expiry, and campaigns. Winning an election is the
//     only way a standby starts serving.
//
//   - Promotion is fenced, BookKeeper-style: the standby seals the old
//     primary's ledgers before serving. A sealed ledger rejects appends,
//     so the old primary's in-flight group commits fail, its WAL writer
//     latches ErrFenced, and the status oracle above it latches into
//     fail-fast errors — it can never double-ack a commit the promoted
//     oracle did not inherit.
//
// The safety contract for clients is exactly the acknowledged-commit
// invariant: a commit acked before the failover is durable on the ledgers
// the standby drains, so it stays visible after promotion; a commit that
// was in flight is either inherited (its record won the race into the
// sealed log) or permanently uncommitted — never silently both, because
// the old primary cannot ack it after the fence. Clients resolve such
// in-doubt commits by querying the promoted oracle, never by resubmitting.
//
// With the default write quorum (all ledgers), any single ledger is a
// complete copy of every acknowledged record, so the standby may tail one
// designated ledger. Deployments that lower wal.Config.Quorum must point
// the standby at a ledger included in every write quorum.
package ha

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// Checkpointer periodically snapshots a status oracle's commit table into
// its WAL, bounding recovery replay to the checkpoint interval.
type Checkpointer struct {
	so      *oracle.StatusOracle
	stop    chan struct{}
	done    chan struct{}
	lastErr atomic.Value // error
}

// StartCheckpointer begins checkpointing so every interval. Stop it before
// closing the oracle's WAL writer.
func StartCheckpointer(so *oracle.StatusOracle, interval time.Duration) *Checkpointer {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	c := &Checkpointer{so: so, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if err := so.Checkpoint(); err != nil {
					c.lastErr.Store(errBox{err})
				}
			}
		}
	}()
	return c
}

// Stop halts the loop and waits for an in-flight checkpoint to finish.
func (c *Checkpointer) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// Err returns the most recent checkpoint failure, if any.
func (c *Checkpointer) Err() error {
	box, _ := c.lastErr.Load().(errBox)
	return box.err
}

// errBox gives atomic.Value a single concrete type to hold errors of any
// underlying type.
type errBox struct{ err error }

// Standby maintains a hot shadow of a primary status oracle by tailing its
// ledger. It applies commit, abort, commit-batch and checkpoint records
// into an oracle that is not serving, and tracks the timestamp-oracle
// reservation bound (from checkpoint records and reservation records) so
// a promotion can resume the timestamp epoch monotonically.
type Standby struct {
	mu       sync.Mutex
	shadow   *oracle.StatusOracle
	tail     *wal.Tailer
	tsoBound uint64
	applied  int64
	observed int64 // every record tailed, including lease/tso/foreign ones
	promoted bool

	// Leadership as observed from lease records in the tailed log.
	leaseEpoch uint64
	leaseSeq   uint64
	leaderAddr string
}

// NewStandby builds a standby over the designated read ledger. cfg carries
// the conflict-detection parameters, which must match the primary's; its
// WAL and TSO fields are ignored (the shadow gets them at promotion).
func NewStandby(cfg oracle.Config, read wal.Ledger) (*Standby, error) {
	cfg.WAL = nil
	cfg.TSO = tso.New(0, nil) // placeholder; replaced at promotion
	shadow, err := oracle.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Standby{shadow: shadow, tail: wal.NewTailer(read)}, nil
}

// CatchUp drains every entry currently in the ledger into the shadow,
// returning how many records it applied.
func (s *Standby) CatchUp() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catchUpLocked()
}

func (s *Standby) catchUpLocked() (int, error) {
	if s.promoted {
		return 0, errors.New("ha: standby already promoted")
	}
	n := 0
	for {
		entry, ok, err := s.tail.Next()
		if err != nil {
			return n, fmt.Errorf("ha: tail: %w", err)
		}
		if !ok {
			return n, nil
		}
		s.observed++
		if bound, isT := tso.DecodeRecord(entry); isT {
			if bound > s.tsoBound {
				s.tsoBound = bound
			}
			continue
		}
		if epoch, seq, addr, isLease := DecodeLeaseRecord(entry); isLease {
			if epoch > s.leaseEpoch || (epoch == s.leaseEpoch && seq > s.leaseSeq) {
				s.leaseEpoch, s.leaseSeq, s.leaderAddr = epoch, seq, addr
			}
			continue
		}
		if bound, isCkpt := oracle.CheckpointBound(entry); isCkpt && bound > s.tsoBound {
			s.tsoBound = bound
		}
		applied, err := s.shadow.ApplyLogEntry(entry)
		if err != nil {
			return n, fmt.Errorf("ha: apply: %w", err)
		}
		if applied {
			n++
			s.applied++
		}
	}
}

// Applied returns how many oracle records the standby has applied and the
// timestamp-oracle bound it has observed.
func (s *Standby) Applied() (records int64, tsoBound uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, s.tsoBound
}

// Observed returns how many log records of any kind the standby has
// tailed. The failure detector watches it: a live leader renews its lease
// through the log, so Observed advances at least once per renewal period.
func (s *Standby) Observed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observed
}

// Lease returns the newest leadership claim observed in the log: the
// epoch and renewal sequence of the latest lease record, and the leader
// address it advertised ("" before any lease record).
func (s *Standby) Lease() (epoch, seq uint64, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaseEpoch, s.leaseSeq, s.leaderAddr
}

// QueryBatchInto serves a stale-bounded read from the shadow commit
// table: result[i] answers startTSs[i] as of the standby's applied log
// prefix. Because the WAL is applied in log order, the answer is
// prefix-consistent — it is exactly the primary's state as of some recent
// log position, never a mix — and the staleness bound is Lag() records
// (surfaced as ha_standby_lag_records). Serialized against CatchUp under
// s.mu, so reads never observe a half-applied checkpoint reset.
func (s *Standby) QueryBatchInto(startTSs []uint64, scratch []oracle.TxnStatus) []oracle.TxnStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shadow.QueryBatchInto(startTSs, scratch)
}

// Lag reports how many log records the standby is behind the ledger's
// current end — the staleness bound of its reads. Control-plane cost:
// proportional to the backlog, capped at 1024 unread batches (the result
// is then a lower bound).
func (s *Standby) Lag() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, nil
	}
	return s.tail.Lag(1024)
}

// ErrElectionLost is returned by Promote when another candidate sealed a
// quorum of the fence ledgers at the proposed epoch first. The loser's
// standby is untouched — it keeps tailing until the winner's log appears.
var ErrElectionLost = errors.New("ha: election lost: seal epoch superseded on a quorum")

// PromoteConfig parameterizes a fenced promotion.
type PromoteConfig struct {
	// Fence lists the old primary's ledgers to seal. With a write quorum
	// of Q over N ledgers, at least N-Q+1 must seal successfully for the
	// fence to guarantee the old primary can never again reach quorum;
	// MinSeals sets that requirement (0 means all of Fence).
	Fence    []wal.Ledger
	MinSeals int
	// FenceEpoch, when nonzero, makes the fence an election: each Fence
	// ledger is sealed with wal.SealEpoch(FenceEpoch), and only seals this
	// call newly won count toward MinSeals — a ledger already sealed at
	// FenceEpoch (or higher) by a rival candidate counts against it. Each
	// ledger grants an epoch at most once, so with MinSeals a majority of
	// Fence, two candidates proposing the same epoch cannot both promote:
	// the loser gets ErrElectionLost and its standby stays intact. The
	// epoch is thereby the fencing token, derived from the seal itself.
	FenceEpoch uint64
	// WAL is the promoted oracle's writer (typically over fresh ledgers).
	// The promotion writes a full checkpoint as its first record, so the
	// new log is self-contained: recovering the promoted oracle never
	// needs the sealed history. Nil leaves the promoted oracle
	// memory-only.
	WAL *wal.Writer
	// NewWAL, when non-nil, takes precedence over WAL: it is called only
	// after the fence quorum is won, so an election candidate creates the
	// next epoch's ledger set exactly when it holds the fence — losers
	// never create a rival log.
	NewWAL func() (*wal.Writer, error)
	// TSOBatch is the promoted timestamp oracle's reservation block size
	// (0 selects the default).
	TSOBatch int
}

// Promote performs the fenced failover and returns the shadow as a serving
// status oracle:
//
//  1. seal the old primary's ledgers, so its in-flight appends fail and
//     its writer latches ErrFenced;
//  2. drain the tail — the sealed ledger can no longer grow, so the drain
//     observes every record that was ever acknowledged;
//  3. resume the timestamp epoch at the observed reservation bound, wire
//     the shadow to its new WAL, and write the initial checkpoint.
//
// The promoted oracle's first timestamp is strictly above everything the
// old primary could have issued, and every commit the old primary acked is
// in its commit table.
func (s *Standby) Promote(pc PromoteConfig) (*oracle.StatusOracle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, errors.New("ha: standby already promoted")
	}

	need := pc.MinSeals
	if need <= 0 {
		need = len(pc.Fence)
	}
	sealed, superseded := 0, 0
	var sealErr error
	for _, l := range pc.Fence {
		var err error
		if pc.FenceEpoch > 0 {
			err = wal.SealEpoch(l, pc.FenceEpoch)
		} else {
			err = wal.Seal(l)
		}
		if err != nil {
			if errors.Is(err, wal.ErrEpochSuperseded) {
				superseded++
			}
			if sealErr == nil {
				sealErr = err
			}
			continue
		}
		sealed++
	}
	if sealed < need {
		if superseded > 0 {
			return nil, fmt.Errorf("%w: won %d/%d seals at epoch %d (need %d): %v",
				ErrElectionLost, sealed, len(pc.Fence), pc.FenceEpoch, need, sealErr)
		}
		return nil, fmt.Errorf("ha: fence failed: sealed %d/%d ledgers (need %d): %v",
			sealed, len(pc.Fence), need, sealErr)
	}

	if _, err := s.catchUpLocked(); err != nil {
		return nil, err
	}

	w := pc.WAL
	if pc.NewWAL != nil {
		var err error
		if w, err = pc.NewWAL(); err != nil {
			return nil, fmt.Errorf("ha: create promoted WAL: %w", err)
		}
	}
	clock := tso.Resume(s.tsoBound, pc.TSOBatch, w)
	s.shadow.Promote(clock, w)
	if w != nil {
		if err := s.shadow.Checkpoint(); err != nil {
			return nil, fmt.Errorf("ha: initial checkpoint: %w", err)
		}
	}
	s.promoted = true
	return s.shadow, nil
}

// MetricsSource adapts the standby's tailing progress to the metrics
// registry: records applied, the TSO bound the shadow has reached, and
// how far it lags the ledger.
func (s *Standby) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		records, bound := s.Applied()
		emit(metrics.C("ha_standby_applied_records", records))
		emit(metrics.G("ha_standby_tso_bound", float64(bound)))
		if lag, err := s.Lag(); err == nil {
			emit(metrics.G("ha_standby_lag_records", float64(lag)))
		}
	}
}
