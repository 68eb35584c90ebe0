package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	// maxAttempts bounds how often a conflict-aborted update transaction
	// is re-run before it counts as missing every latency limit.
	maxAttempts = 16
	// openWorkers caps the transactions the open-loop generator keeps in
	// flight; later arrivals queue client-side and their wait counts in
	// their latency. A transaction has one request in flight, but the
	// admission gate frees a request's slot only after its response is
	// written, so a worker's next request can overlap the release of its
	// last ones; at a quarter of the gate's inflight plus queue capacity
	// (256 + 128) the gate never sheds.
	openWorkers = 96
	// grace is how long arrivals still queued when an open-loop phase ends
	// may take to start before they are recorded as misses.
	grace = time.Second
)

// miss is the latency recorded for a transaction that missed every limit:
// it errored, exhausted its attempts, or never started before its phase
// ended.
var miss = math.Inf(1)

// phase accumulates the outcomes of one load phase. Latencies are in
// milliseconds from the scheduled arrival (open loop) or from the start of
// the transaction (closed loop).
type phase struct {
	mu       sync.Mutex
	start    time.Time
	window   time.Duration // 0: no per-window breakdown
	upd, ro  []float64
	late     []float64 // generator lateness, ms
	windows  []*windowRec
	offered  int64 // arrivals scheduled (open loop)
	started  int64 // arrivals started (open loop)
	backlog  int64 // arrivals not started when the schedule ended
	attempts int64 // update attempts, retries included
	aborts   int64 // conflict aborts
	failed   int64 // transactions that failed with a non-conflict error
	txns     int64 // transactions attempted
	commits  int64 // transactions committed
	lastDone time.Time
	firstErr error // the first non-conflict error
}

// windowRec is one window of a timed phase.
type windowRec struct {
	upd, ro []float64
	traced  bool
	heapMB  float64
}

func newPhase(window time.Duration) *phase {
	return &phase{start: time.Now(), window: window}
}

// record files one finished transaction.
func (p *phase) record(due time.Time, update bool, lat float64, o outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.txns++
	p.attempts += int64(o.attempts)
	p.aborts += int64(o.aborts)
	if o.err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = o.err
		}
	}
	if o.committed {
		p.commits++
		p.lastDone = time.Now()
	}
	if update {
		p.upd = append(p.upd, lat)
	} else {
		p.ro = append(p.ro, lat)
	}
	if p.window > 0 {
		w := p.windowAt(due)
		if update {
			w.upd = append(w.upd, lat)
		} else {
			w.ro = append(w.ro, lat)
		}
	}
}

// windowAt returns the window holding t; p.mu is held.
func (p *phase) windowAt(t time.Time) *windowRec {
	i := int(t.Sub(p.start) / p.window)
	if i < 0 {
		i = 0
	}
	for len(p.windows) <= i {
		p.windows = append(p.windows, &windowRec{})
	}
	return p.windows[i]
}

// outcome is how one transaction ended.
type outcome struct {
	committed bool
	err       error // a non-conflict error ended the transaction
	attempts  int   // update attempts (0 for read-only transactions)
	aborts    int
}

// loader runs generated transactions against a stack.
type loader struct {
	st       *stack
	tr       *tracer
	inflight *inflightSet
	acks     *ackLog
	next     atomic.Uint64 // round-robins transactions over the txn clients
}

// job is one generated transaction: the distinct rows it reads and writes.
// Rows stay indexes until the job runs, so a phase's pre-generated jobs
// hold few pointers for the garbage collector to trace.
type job struct {
	reads, writes []int64
}

func (j *job) update() bool { return len(j.writes) > 0 }

func newJob(tx workload.Txn) job {
	return job{reads: tx.ReadRows(), writes: tx.WriteRows()}
}

// run executes a job to its end, re-running it after conflict aborts, and
// returns how it ended. slot is the caller's in-flight slot.
func (d *loader) run(j *job, slot int) outcome {
	c := d.st.clients[d.next.Add(1)%uint64(len(d.st.clients))]
	d.inflight.enter(slot)
	defer d.inflight.leave(slot)
	keys := make([]string, len(j.reads))
	for i, r := range j.reads {
		keys[i] = d.st.keys[r]
	}
	var o outcome
	var val []byte
	for {
		if j.update() {
			o.attempts++
		}
		err := d.attempt(c, j, keys, &val)
		switch {
		case err == nil:
			o.committed = true
			return o
		case errors.Is(err, txn.ErrConflict):
			o.aborts++
			if o.attempts < maxAttempts {
				continue
			}
			return o
		default:
			o.err = err
			return o
		}
	}
}

// attempt runs the job once, timing each txn call while tracing. keys are
// the job's read keys; val is a reused buffer for the written values (Put copies
// them).
func (d *loader) attempt(c *txn.Client, j *job, keys []string, val *[]byte) error {
	tr := d.tr
	t0 := tr.start()
	t, err := c.Begin()
	tr.end(pTxnBegin, t0)
	if err != nil {
		return err
	}
	if len(keys) > 0 {
		t0 = tr.start()
		_, _, err = t.GetMulti(keys)
		tr.end(pTxnGetMulti, t0)
		if err != nil {
			return err
		}
	}
	for _, r := range j.writes {
		*val = appendValue((*val)[:0], r, t.StartTS())
		t0 = tr.start()
		err = t.Put(d.st.keys[r], *val)
		tr.end(pTxnPut, t0)
		if err != nil {
			return err
		}
	}
	p := pTxnCommitReadOnly
	if j.update() {
		p = pTxnCommitUpdate
	}
	t0 = tr.start()
	err = t.Commit()
	tr.end(p, t0)
	if err == nil && j.update() {
		d.acks.add(t.StartTS(), t.CommitTS())
	}
	return err
}

// appendValue renders the value a writer stores: the row and a tag.
func appendValue(b []byte, row int64, tag uint64) []byte {
	b = append(b, 'r')
	b = strconv.AppendInt(b, row, 10)
	b = append(b, '.')
	return strconv.AppendUint(b, tag, 10)
}

// arrival is one scheduled open-loop job.
type arrival struct {
	due time.Time
	j   *job
}

// openLoop offers rate txn/s for dur on a workload.OpenLoop schedule.
// The phase's jobs are generated from rng before its clock starts, so a
// seed fixes the offered sequence and the generator allocates nothing
// while it dispatches. Arrivals that have not started within grace after
// dur ends are recorded as misses. onWindow, if set, is called at the start
// of each window of p with the window's index.
func (d *loader) openLoop(p *phase, rate float64, dur time.Duration, mix *workload.Mix, rng *rand.Rand, onWindow func(int)) {
	n := int(rate * dur.Seconds())
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = newJob(mix.Next(rng))
	}
	late := make([]float64, 0, n)
	// Sized to hold every arrival of the phase, so the generator never
	// blocks behind a stalled system and keeps its schedule.
	queue := make(chan arrival, n)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for a := range queue {
				if stopped.Load() {
					p.record(a.due, a.j.update(), miss, outcome{})
					continue
				}
				atomic.AddInt64(&p.started, 1)
				o := d.run(a.j, slot)
				lat := miss
				if o.committed {
					lat = float64(time.Since(a.due)) / 1e6
				}
				p.record(a.due, a.j.update(), lat, o)
			}
		}(w)
	}
	ol := workload.NewOpenLoop(rate)
	p.mu.Lock()
	p.start = ol.Take()
	p.mu.Unlock()
	due := p.start
	win := 0
	if onWindow != nil {
		onWindow(0)
	}
	for i := range jobs {
		if i > 0 {
			due = ol.Take()
		}
		ol.Wait(due)
		if onWindow != nil && due.Sub(p.start) >= time.Duration(win+1)*p.window {
			win++
			onWindow(win)
		}
		late = append(late, float64(time.Since(due))/1e6)
		queue <- arrival{due: due, j: &jobs[i]}
	}
	end := p.start.Add(dur)
	time.Sleep(time.Until(end))
	backlog := int64(n) - atomic.LoadInt64(&p.started)
	for t := time.Now(); len(queue) > 0 && time.Since(t) < grace; {
		time.Sleep(10 * time.Millisecond)
	}
	stopped.Store(true)
	close(queue)
	wg.Wait()
	p.mu.Lock()
	p.late = late
	p.offered = int64(n)
	p.backlog = backlog
	p.mu.Unlock()
}

// closedLoop runs sessions sessions back to back for dur; each session
// starts its next transaction when the previous one ends. It returns the
// commit rate of each whole window of dur, in txn/s.
func (d *loader) closedLoop(p *phase, sessions int, dur time.Duration, sp *spec, seed int64) []float64 {
	var stop atomic.Bool
	commits := make([]atomic.Int64, int(dur/window))
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
			mix := workload.NewMix(sp.mix, sp.generator())
			for !stop.Load() {
				j := newJob(mix.Next(rng))
				t0 := time.Now()
				o := d.run(&j, openWorkers+s)
				lat := miss
				if o.committed {
					lat = float64(time.Since(t0)) / 1e6
					if w := int(time.Since(start) / window); w < len(commits) {
						commits[w].Add(1)
					}
				}
				p.record(t0, j.update(), lat, o)
			}
		}(s)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	rates := make([]float64, len(commits))
	for i := range commits {
		rates[i] = float64(commits[i].Load()) / window.Seconds()
	}
	return rates
}

// inflightSet tracks a lower bound on the start timestamp of every
// transaction in flight, so compaction never prunes a version a live
// snapshot may read.
type inflightSet struct {
	mu    sync.Mutex
	slots []uint64 // 0: free
	last  func() uint64
}

func newInflightSet(n int, last func() uint64) *inflightSet {
	return &inflightSet{slots: make([]uint64, n), last: last}
}

// enter marks slot busy with a bound every start timestamp it will draw
// exceeds: timestamps drawn after this point are above the current last.
func (s *inflightSet) enter(slot int) {
	s.mu.Lock()
	s.slots[slot] = s.last() + 1
	s.mu.Unlock()
}

func (s *inflightSet) leave(slot int) {
	s.mu.Lock()
	s.slots[slot] = 0
	s.mu.Unlock()
}

// lowWater returns a timestamp no live or future transaction starts below.
func (s *inflightSet) lowWater() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	low := s.last() + 1
	for _, ts := range s.slots {
		if ts != 0 && ts < low {
			low = ts
		}
	}
	return low
}

// ackLog records every acknowledged update commit for the checks.
type ackLog struct {
	mu   sync.Mutex
	acks [][2]uint64 // start, commit
}

func (a *ackLog) add(start, commit uint64) {
	a.mu.Lock()
	a.acks = append(a.acks, [2]uint64{start, commit})
	a.mu.Unlock()
}

// compactor prunes the store on a fixed cadence below the in-flight low
// water mark, resolving writers through the in-process oracle.
type compactor struct {
	stop    chan struct{}
	done    chan struct{}
	queries atomic.Int64 // oracle Query calls the resolver made
	mu      sync.Mutex
	passMS  []float64
	removed []int
}

func startCompactor(store *kvstore.Store, so *oracle.StatusOracle, in *inflightSet, every time.Duration) *compactor {
	c := &compactor{stop: make(chan struct{}), done: make(chan struct{})}
	resolve := func(_ string, writeTS uint64) (uint64, kvstore.GCStatus) {
		c.queries.Add(1)
		st := so.Query(writeTS)
		switch st.Status {
		case oracle.StatusCommitted:
			return st.CommitTS, kvstore.GCCommitted
		case oracle.StatusAborted:
			return 0, kvstore.GCAborted
		}
		return 0, kvstore.GCPending
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			n := store.CompactBefore(in.lowWater(), resolve)
			c.mu.Lock()
			c.passMS = append(c.passMS, float64(time.Since(t0))/1e6)
			c.removed = append(c.removed, n)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *compactor) close() {
	close(c.stop)
	<-c.done
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// blockTail is the tail latency reported for a timed phase: the class's
// samples, in arrival order, are cut into consecutive blocks of
// blockSamples, each block's p99 is taken, and the median over the blocks
// is returned with the block count. A block spans a fraction of a second
// at the nominal rates, so a passing disturbance (a GC mark phase, a
// compaction pass, a stolen core) inflates the few blocks it overlaps and
// not the reported value; the pooled p99 that such disturbances set is
// printed beside it. With fewer than three blocks it falls back to the
// pooled tailQuantile of all samples, and with too few samples even for
// that it returns no blocks.
func blockTail(ws []*windowRec, class func(*windowRec) []float64) (q, v float64, blocks int) {
	var all []float64
	for _, w := range ws {
		all = append(all, class(w)...)
	}
	var tails []float64
	for i := 0; i+blockSamples <= len(all); i += blockSamples {
		tails = append(tails, quantile(all[i:i+blockSamples], 0.99))
	}
	if len(tails) >= 3 {
		return 0.99, median(tails), len(tails)
	}
	q, v, ok := tailQuantile(all)
	if !ok {
		return 0, 0, 0
	}
	return q, v, 1
}

// blockSamples gives a block's p99 ten samples beyond it.
const blockSamples = 1000

// tailQuantile returns the highest of p99, p95 and p90 with at least ten
// samples beyond it, and that quantile; ok is false when even p90 lacks
// them.
func tailQuantile(xs []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(xs))*(1-q) >= 10 {
			return q, quantile(xs, q), true
		}
	}
	return 0, 0, false
}
