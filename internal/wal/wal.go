// Package wal implements the replicated, batched write-ahead log that the
// status oracle persists its commit decisions into. It stands in for Apache
// BookKeeper (paper, Appendix A): every state change of the status oracle is
// appended to a log replicated across multiple remote storage devices, and
// appends are group-committed — a batch is flushed when it reaches
// BatchBytes (paper: 1 KB) or when BatchDelay elapses since the last
// trigger (paper: 5 ms), whichever comes first.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Ledger is one replica of the log (a "bookie" in BookKeeper terms).
// AppendBatch must be safe for concurrent use with ReadBatch.
type Ledger interface {
	// AppendBatch durably stores one batch and returns its index. The
	// batch slice is only valid for the duration of the call — the writer
	// recycles batch buffers — so an implementation that retains bytes
	// must copy them.
	AppendBatch(batch []byte) (int, error)
	// NumBatches returns the number of stored batches.
	NumBatches() (int, error)
	// ReadBatch returns the i-th stored batch.
	ReadBatch(i int) ([]byte, error)
}

// Errors returned by the writer and the fencing layer.
var (
	ErrClosed       = errors.New("wal: writer closed")
	ErrQuorumFailed = errors.New("wal: quorum of ledgers failed")
	ErrCorrupt      = errors.New("wal: corrupt entry")
	// ErrEmptyEntry rejects a zero-length append: a zero-length frame is
	// indistinguishable from zero-filled disk (CRC32 of nothing is 0), so
	// the log never holds one.
	ErrEmptyEntry = errors.New("wal: empty entry")
	// ErrSealed is returned by a sealed ledger's AppendBatch. Sealing is
	// the BookKeeper-style fence a promoting standby applies before it
	// serves: no writer can extend a sealed ledger.
	ErrSealed = errors.New("wal: ledger sealed")
	// ErrFenced is returned by a writer that has observed a seal on any
	// of its ledgers. The writer latches permanently: a seal means a
	// successor has taken over the log, so acknowledging further appends
	// could double-ack a commit the successor never saw.
	ErrFenced = errors.New("wal: writer fenced by ledger seal")
	// ErrEpochSuperseded is returned by SealEpoch when the ledger already
	// carries a seal at an equal or higher epoch: another candidate won
	// that epoch's election on this replica. Because each ledger accepts a
	// given epoch at most once, two candidates proposing the same epoch can
	// never both assemble a quorum of fresh seals — the seal itself is the
	// election's serialization point.
	ErrEpochSuperseded = errors.New("wal: seal epoch superseded")
	// ErrTornTail is returned by a Tailer whose ledger's final batch does
	// not decode (it also matches ErrCorrupt). When the writer crashed
	// mid-append, that batch was never acked, and the writer-mode open
	// that fences the log truncates it, so a follower stuck on it may
	// stand for election.
	ErrTornTail = errors.New("wal: undecodable final batch")
)

// EpochSealer is implemented by ledgers whose seal carries an election
// epoch. The epoch is the fencing token of the self-healing oracle group:
// a candidate for epoch e fences the previous epoch's ledgers by sealing
// them at e, and the ledger arbitrates — a proposal at or below the
// current seal epoch fails with ErrEpochSuperseded.
type EpochSealer interface {
	// SealEpoch fences the ledger with an epoch-numbered seal. It succeeds
	// only when epoch is strictly higher than the ledger's current seal
	// epoch (an unsealed ledger counts as epoch 0), so each epoch is
	// granted at most once per ledger; otherwise ErrEpochSuperseded.
	SealEpoch(epoch uint64) error
	// SealedEpoch returns the epoch of the current seal: 0 when the ledger
	// is unsealed, sealed at epoch 0, or carries a legacy bare seal marker.
	SealedEpoch() uint64
}

// SealEpoch fences a ledger with an epoch-numbered seal. It is the only
// fence: a ledger that is not an EpochSealer cannot be fenced and returns
// an error.
func SealEpoch(l Ledger, epoch uint64) error {
	es, ok := l.(EpochSealer)
	if !ok {
		return fmt.Errorf("wal: ledger %T is not sealable", l)
	}
	return es.SealEpoch(epoch)
}

// Config parameterizes the batching and replication policy.
type Config struct {
	// BatchBytes triggers a flush once this many payload bytes are
	// buffered. Paper value: 1024.
	BatchBytes int
	// BatchDelay triggers a flush this long after the first entry of a
	// batch arrives. Paper value: 5ms.
	BatchDelay time.Duration
	// Quorum is the number of ledgers that must acknowledge a batch
	// before its entries are considered durable. Zero means all.
	Quorum int
}

// DefaultConfig returns the paper's batching parameters.
func DefaultConfig() Config {
	return Config{BatchBytes: 1024, BatchDelay: 5 * time.Millisecond}
}

// pendingWaiter is one Append/AppendAll call parked on a batch; its done
// channel receives exactly one value when the batch's fate is known.
type pendingWaiter struct {
	done chan error
}

// Writer batches entries and replicates each batch to a set of ledgers.
// Append blocks until the entry is durable on a quorum of ledgers, so the
// caller observes the same group-commit latency profile as the paper's
// status oracle did with BookKeeper.
//
// Entries are framed (length + CRC) directly into the accumulating batch
// buffer at enqueue time — the framing IS the copy, so there is no separate
// per-entry allocation and no re-encode at flush time. Batch buffers and
// waiter slices cycle through small free lists, so a steady append rate
// runs the whole group-commit pipeline with zero allocation.
type Writer struct {
	cfg     Config
	ledgers []Ledger

	mu      sync.Mutex
	buf     []byte // framed entries of the accumulating batch
	waiters []pendingWaiter
	timer   *time.Timer
	closed  bool
	fenced  bool // a flush observed ErrSealed; every later append fails fast

	// Free lists recycling flushed batch buffers and waiter slices.
	freeBufs    [][]byte
	freeWaiters [][]pendingWaiter

	// flushMu serializes flushes; the ticket pair orders them. Each
	// takeLocked draws nextTicket under w.mu (take order = cut order) and
	// flush blocks until serveTicket reaches its ticket, so batches land
	// in the ledgers in exactly the order they were cut even though
	// size-triggered flushes run in freshly spawned goroutines.
	flushMu     sync.Mutex
	flushCond   *sync.Cond
	nextTicket  uint64
	serveTicket uint64

	// Lifetime counters feeding MetricsSource.
	entriesAppended atomic.Int64
	batchesFlushed  atomic.Int64
	bytesFlushed    atomic.Int64
	quorumFailures  atomic.Int64
}

// Fenced reports whether the writer has observed a seal on any ledger and
// latched into fail-fast mode.
func (w *Writer) Fenced() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fenced
}

// NewWriter creates a writer replicating to the given ledgers.
func NewWriter(cfg Config, ledgers ...Ledger) (*Writer, error) {
	if len(ledgers) == 0 {
		return nil, errors.New("wal: need at least one ledger")
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 1024
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = 5 * time.Millisecond
	}
	if cfg.Quorum <= 0 || cfg.Quorum > len(ledgers) {
		cfg.Quorum = len(ledgers)
	}
	w := &Writer{cfg: cfg, ledgers: ledgers}
	w.flushCond = sync.NewCond(&w.flushMu)
	return w, nil
}

// Append stores one entry and blocks until it is durable on a quorum of
// ledgers (or the writer fails).
func (w *Writer) Append(entry []byte) error {
	done, err := w.AppendAsync(entry)
	if err != nil {
		return err
	}
	return <-done
}

// appendFramedLocked frames one entry (length + CRC + payload) into the
// accumulating batch buffer. Caller holds w.mu.
func (w *Writer) appendFramedLocked(entry []byte) {
	w.buf = appendEntryFrame(w.buf, entry)
	w.entriesAppended.Add(1)
}

// maybeFlushLocked cuts the batch if it reached BatchBytes, else arms the
// delay timer. Caller holds w.mu, which is released either way.
func (w *Writer) maybeFlushLocked() {
	if len(w.buf) >= w.cfg.BatchBytes {
		batch, waiters, ticket := w.takeLocked()
		w.mu.Unlock()
		go w.flush(batch, waiters, ticket)
		return
	}
	if w.timer == nil {
		w.timer = time.AfterFunc(w.cfg.BatchDelay, w.flushTimer)
	}
	w.mu.Unlock()
}

// AppendAsync enqueues one entry and returns a channel that reports its
// durability. The channel receives exactly one value. The entry is framed
// into the batch buffer before AppendAsync returns, so the caller may reuse
// its buffer immediately.
func (w *Writer) AppendAsync(entry []byte) (<-chan error, error) {
	if len(entry) == 0 {
		return nil, ErrEmptyEntry
	}
	done := make(chan error, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.fenced {
		w.mu.Unlock()
		return nil, ErrFenced
	}
	w.appendFramedLocked(entry)
	w.waiters = append(w.waiters, pendingWaiter{done: done})
	w.maybeFlushLocked()
	return done, nil
}

// AppendAll enqueues a group of entries under a single lock acquisition —
// one batching decision for the whole group instead of one per entry — and
// blocks until every entry is durable on a quorum of ledgers. The status
// oracle's batched commit path uses it to persist a commit batch and its
// accompanying abort records as one group commit. The entries are framed
// in place into the batch buffer before the call blocks, so the caller's
// buffers (typically pooled record scratch) are reusable on return.
func (w *Writer) AppendAll(entries ...[]byte) error {
	if len(entries) == 0 {
		return nil
	}
	for _, entry := range entries {
		if len(entry) == 0 {
			return ErrEmptyEntry
		}
	}
	done := make(chan error, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.fenced {
		w.mu.Unlock()
		return ErrFenced
	}
	for _, entry := range entries {
		w.appendFramedLocked(entry)
	}
	w.waiters = append(w.waiters, pendingWaiter{done: done})
	w.maybeFlushLocked()
	return <-done
}

// flushTimer fires when BatchDelay elapses.
func (w *Writer) flushTimer() {
	w.mu.Lock()
	batch, waiters, ticket := w.takeLocked()
	w.mu.Unlock()
	w.flush(batch, waiters, ticket)
}

// takeLocked removes and returns the accumulated batch and its flush
// ticket, installing recycled buffers for the next one. Caller holds w.mu.
// Every take MUST be followed by a flush call, even when empty — the
// ticket must be consumed for later flushes to proceed.
func (w *Writer) takeLocked() ([]byte, []pendingWaiter, uint64) {
	batch, waiters := w.buf, w.waiters
	w.buf, w.waiters = nil, nil
	if n := len(w.freeBufs); n > 0 {
		w.buf = w.freeBufs[n-1]
		w.freeBufs = w.freeBufs[:n-1]
	}
	if n := len(w.freeWaiters); n > 0 {
		w.waiters = w.freeWaiters[n-1]
		w.freeWaiters = w.freeWaiters[:n-1]
	}
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	ticket := w.nextTicket
	w.nextTicket++
	return batch, waiters, ticket
}

// recycle returns a flushed batch buffer and waiter slice to the free
// lists. Oversized buffers and surplus list entries go to the GC.
func (w *Writer) recycle(batch []byte, waiters []pendingWaiter) {
	const maxRetained = 1 << 20
	w.mu.Lock()
	if len(w.freeBufs) < 4 && cap(batch) <= maxRetained {
		w.freeBufs = append(w.freeBufs, batch[:0])
	}
	if len(w.freeWaiters) < 4 {
		w.freeWaiters = append(w.freeWaiters, waiters[:0])
	}
	w.mu.Unlock()
}

const frameOverhead = 8 // 4-byte length + 4-byte CRC32 per entry

// appendEntryFrame frames one entry as the batch payload stores it
// (length, CRC32, payload) — the single definition of the frame layout,
// shared by the live writer and the round-trip tests.
func appendEntryFrame(buf, entry []byte) []byte {
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(entry)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(entry))
	buf = append(buf, hdr[:]...)
	return append(buf, entry...)
}

// DecodeBatch splits a batch payload back into entries, verifying CRCs.
// A zero-length frame is corrupt: the writer never produces one, and it is
// what zero-filled bytes of a torn write decode as.
func DecodeBatch(batch []byte) ([][]byte, error) {
	var entries [][]byte
	for len(batch) > 0 {
		if len(batch) < frameOverhead {
			return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		n := binary.BigEndian.Uint32(batch[0:4])
		sum := binary.BigEndian.Uint32(batch[4:8])
		if n == 0 {
			return nil, fmt.Errorf("%w: zero-length frame", ErrCorrupt)
		}
		batch = batch[frameOverhead:]
		if uint32(len(batch)) < n {
			return nil, fmt.Errorf("%w: truncated entry body", ErrCorrupt)
		}
		data := batch[:n]
		if crc32.ChecksumIEEE(data) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		entries = append(entries, data)
		batch = batch[n:]
	}
	return entries, nil
}

// flush replicates one pre-framed batch to all ledgers and acknowledges
// the waiters once a quorum has accepted it. Flushes are admitted in
// ticket (= cut) order, so a size-triggered flush goroutine scheduled
// late can never let a later batch overtake it into the ledgers.
func (w *Writer) flush(batch []byte, waiters []pendingWaiter, ticket uint64) {
	// Taken even for an empty batch: Flush/Close must block until any
	// in-flight flush has fully replicated before claiming the log is
	// synced, and the ticket must advance regardless.
	w.flushMu.Lock()
	for w.serveTicket != ticket {
		w.flushCond.Wait()
	}
	defer func() {
		w.serveTicket++
		w.flushCond.Broadcast()
		w.flushMu.Unlock()
	}()
	if len(batch) == 0 && len(waiters) == 0 {
		return
	}
	w.batchesFlushed.Add(1)
	w.bytesFlushed.Add(int64(len(batch)))

	errs := make(chan error, len(w.ledgers))
	for _, l := range w.ledgers {
		go func(l Ledger) {
			_, err := l.AppendBatch(batch)
			errs <- err
		}(l)
	}
	// Callers are acknowledged as soon as the quorum decides, but the
	// flush holds flushMu until every replica has responded: a straggler
	// append racing into the next batch would reorder that ledger's
	// batches (breaking Replay), and Flush/Close must be true barriers so
	// recovery never reads a ledger with an append still in flight.
	acks, fails := 0, 0
	var firstErr error
	sealed := false
	need := w.cfg.Quorum
	acked := false
	ack := func() {
		var result error
		if acks < need {
			w.quorumFailures.Add(1)
			// A seal on any replica means a successor has fenced the
			// log; report it as such so the oracle can latch rather
			// than treat it as a transient quorum loss.
			if sealed {
				result = fmt.Errorf("%w: %d/%d acks", ErrFenced, acks, need)
			} else {
				result = fmt.Errorf("%w: %d/%d acks: %v", ErrQuorumFailed, acks, need, firstErr)
			}
		}
		for _, pw := range waiters {
			pw.done <- result
		}
		acked = true
	}
	for i := 0; i < len(w.ledgers); i++ {
		err := <-errs
		if err == nil {
			acks++
		} else {
			fails++
			if errors.Is(err, ErrSealed) {
				// Latch before any waiter can see ErrFenced, so a
				// caller that got it also sees Fenced().
				sealed = true
				w.mu.Lock()
				w.fenced = true
				w.mu.Unlock()
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		if !acked && (acks >= need || fails > len(w.ledgers)-need) {
			ack()
		}
	}
	if !acked {
		ack()
	}
	// Every replica has responded and every waiter is acknowledged: the
	// batch buffer and waiter slice can serve the next batch.
	w.recycle(batch, waiters)
}

// MetricsSource adapts the writer's group-commit counters to the metrics
// registry: entries framed, batches and bytes flushed, and quorum failures.
func (w *Writer) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		emit(metrics.C("wal_entries_appended_total", w.entriesAppended.Load()))
		emit(metrics.C("wal_batches_flushed_total", w.batchesFlushed.Load()))
		emit(metrics.C("wal_bytes_flushed_total", w.bytesFlushed.Load()))
		emit(metrics.C("wal_quorum_failures_total", w.quorumFailures.Load()))
		flushed := w.batchesFlushed.Load()
		if flushed > 0 {
			emit(metrics.G("wal_batch_bytes_avg", float64(w.bytesFlushed.Load())/float64(flushed)))
		}
	}
}

// Flush forces out any buffered entries and waits for them.
func (w *Writer) Flush() {
	w.mu.Lock()
	batch, waiters, ticket := w.takeLocked()
	w.mu.Unlock()
	w.flush(batch, waiters, ticket)
}

// Close flushes buffered entries and marks the writer closed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	batch, waiters, ticket := w.takeLocked()
	w.mu.Unlock()
	w.flush(batch, waiters, ticket)
	return nil
}

// Replay feeds every entry stored in the ledger, in append order, to fn.
// It is the recovery path of the status oracle and the timestamp oracle.
func Replay(l Ledger, fn func(entry []byte) error) error {
	return ReplayRange(l, 0, 0, fn)
}

// ReplayRange feeds the ledger's entries to fn starting at batch fromBatch,
// additionally skipping the first skipEntries entries of that batch. The
// status oracle's bounded recovery uses it to replay only the suffix after
// the latest checkpoint instead of the whole log.
func ReplayRange(l Ledger, fromBatch, skipEntries int, fn func(entry []byte) error) error {
	n, err := l.NumBatches()
	if err != nil {
		return err
	}
	for i := fromBatch; i < n; i++ {
		batch, err := l.ReadBatch(i)
		if err != nil {
			return err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			return err
		}
		if i == fromBatch && skipEntries > 0 {
			if skipEntries >= len(entries) {
				continue
			}
			entries = entries[skipEntries:]
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Refresher is implemented by ledgers whose backing storage can grow behind
// the in-memory index (a FileLedger opened read-only on a file another
// process is appending to). A Tailer calls it when it runs out of batches.
type Refresher interface {
	// Refresh re-indexes batches appended since the last scan.
	Refresh() error
}

// Tailer reads a ledger incrementally: each Next call returns the next
// entry in append order, reporting ok=false once it has caught up with the
// ledger's current end. A hot-standby status oracle polls a Tailer to keep
// a shadow commit table current, so promotion only has to drain the final
// few batches.
type Tailer struct {
	l       Ledger
	next    int // next batch index to read
	entries [][]byte
	idx     int
}

// NewTailer starts tailing at the beginning of the ledger.
func NewTailer(l Ledger) *Tailer { return &Tailer{l: l} }

// Next returns the next entry. ok is false when the tailer has consumed
// every entry currently in the ledger; calling Next again later picks up
// batches appended in the meantime.
func (t *Tailer) Next() (entry []byte, ok bool, err error) {
	refreshed := false
	for {
		if t.idx < len(t.entries) {
			e := t.entries[t.idx]
			t.idx++
			return e, true, nil
		}
		n, err := t.l.NumBatches()
		if err != nil {
			return nil, false, err
		}
		if t.next >= n {
			if r, canRefresh := t.l.(Refresher); canRefresh && !refreshed {
				if err := r.Refresh(); err != nil {
					return nil, false, err
				}
				refreshed = true
				continue
			}
			return nil, false, nil
		}
		batch, err := t.l.ReadBatch(t.next)
		if err != nil {
			return nil, false, err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			// Leave t.next in place: the batch is not consumed, so a
			// transient read anomaly is retried on the next call
			// instead of silently skipping a batch.
			if t.next < n-1 {
				return nil, false, err
			}
			// The final batch: re-index once, in case a fencing
			// writer has since truncated it as a torn write.
			if r, canRefresh := t.l.(Refresher); canRefresh && !refreshed {
				if err := r.Refresh(); err != nil {
					return nil, false, err
				}
				refreshed = true
				continue
			}
			return nil, false, fmt.Errorf("%w: batch %d: %w", ErrTornTail, t.next, err)
		}
		t.next++
		t.entries = entries
		t.idx = 0
	}
}

// Lag counts the entries between the tailer's position and the ledger's
// current end: decoded-but-unreturned entries plus the contents of unread
// batches. It is a control-plane helper for staleness gauges — cost is
// proportional to the backlog. maxBatches bounds the walk (0 = unbounded);
// when the bound truncates it, the count is a lower bound. Not safe for
// use concurrent with Next; callers serialize externally.
func (t *Tailer) Lag(maxBatches int) (int, error) {
	lag := len(t.entries) - t.idx
	if r, ok := t.l.(Refresher); ok {
		if err := r.Refresh(); err != nil {
			return lag, err
		}
	}
	n, err := t.l.NumBatches()
	if err != nil {
		return lag, err
	}
	for i := t.next; i < n; i++ {
		if maxBatches > 0 && i-t.next >= maxBatches {
			break
		}
		batch, err := t.l.ReadBatch(i)
		if err != nil {
			return lag, err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			return lag, err
		}
		lag += len(entries)
	}
	return lag, nil
}
