package netsrv

import (
	"encoding/binary"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Server serves a status oracle over TCP. Requests on one connection are
// handled concurrently (the commit path blocks on the WAL group commit, so
// serial handling would needlessly batch latencies); responses carry the
// request id and may arrive out of order.
type Server struct {
	so        atomic.Pointer[oracle.StatusOracle]
	ln        net.Listener
	coal      atomic.Pointer[coalescer]
	qcoal     atomic.Pointer[queryCoalescer]
	installMu sync.Mutex

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf, when set, receives per-connection error logs (defaults to
	// log.Printf; tests silence it).
	Logf func(format string, args ...interface{})

	// LeaderHint, when set, marks this server as one member of a
	// self-healing replicated group: data operations that arrive while the
	// member is not leading (or after its oracle was fenced mid-request)
	// answer codeNotLeader carrying the hint's (epoch, addr), so a failover
	// client re-dials the leader instead of failing. An empty addr falls
	// back to a plain ErrStandby error. Set before Listen.
	LeaderHint func() (epoch uint64, addr string)

	// StandbyReads, when set alongside LeaderHint, serves opQuery and
	// opQueryBatch from the member's local standby shadow while it is not
	// leading: stale-bounded reads stay available through elections. The
	// callback follows QueryBatchInto conventions (scratch reuse); ok
	// false means no shadow is attached yet and the request is answered
	// codeNotLeader like any other data op. Set before Listen.
	StandbyReads func(startTSs []uint64, scratch []oracle.TxnStatus) ([]oracle.TxnStatus, bool)

	// OwnsRow, when set, marks this server as one partition of a
	// partitioned status oracle: commit, prepare and one-shot requests
	// whose rows the router did not assign here are rejected before they
	// can corrupt the partition's slice of the conflict state (a
	// misconfigured client is the partitioned deployment's analogue of a
	// corrupt frame). Set before Listen.
	OwnsRow func(oracle.RowID) bool

	// PartitionID / Partitions identify this server's slice of an elastic
	// partitioned deployment; with a routing table installed (SetRouting),
	// ownership is checked against the table instead of OwnsRow, and a
	// misrouted request answers codeRedirect carrying the table's epoch
	// and spec so the client self-heals. Set both before Listen.
	PartitionID int
	Partitions  int

	routingMu sync.Mutex
	routing   partition.RoutingTable

	// CoalesceMaxBatch, when > 0, enables the server-side coalescers:
	// concurrent single-commit frames are accumulated into oracle commit
	// batches of up to this size, and concurrent single-query frames into
	// QueryBatch calls, each cut after CoalesceMaxDelay if a batch does
	// not fill first. Set both before Listen. Batched frames
	// (opCommitBatch, opQueryBatch) bypass the coalescers — they are
	// already batches.
	CoalesceMaxBatch int
	CoalesceMaxDelay time.Duration

	// Ingress, when set, puts every data-plane request through the
	// admission gate: bounded per-tenant queues with weighted round-robin,
	// per-tenant token buckets, a shared inflight limit and a session cap.
	// Requests beyond the limits are shed at the frame boundary with a
	// codeOverload reply instead of queuing forever. Set before Listen.
	Ingress *IngressConfig
	adm     *admitter

	// IdleTimeout, when > 0, disconnects a connection that sends no frame
	// for this long, so dead clients stop pinning goroutines (and their
	// pooled buffers) forever. Event-stream connections are exempt — a
	// subscriber legitimately never writes. Set before Listen.
	IdleTimeout time.Duration

	// MaxPendingBytes caps the per-connection pending write buffer: a
	// handler whose response would grow the buffer past the cap blocks
	// (backpressure) until the flusher drains it, and a reader that stalls
	// the flusher longer than WriteStallTimeout is disconnected. 0 picks
	// defaultMaxPendingBytes; set -1 for the old unbounded behavior.
	MaxPendingBytes   int
	WriteStallTimeout time.Duration

	// sessions is the server-wide gauge of live multiplexed sessions
	// (distinct envelope session ids across all connections).
	sessions atomic.Int64

	// ctxPool recycles per-request handler contexts (frame read buffer,
	// decode scratch, response build buffer); poolHits/poolMisses feed the
	// PooledFrameHits/Misses stats fields.
	ctxPool              sync.Pool
	poolHits, poolMisses atomic.Int64

	// SlowThreshold, when > 0, makes requests whose total server-side
	// residence time meets it emit one structured slow-request log line with
	// all stage timings (1 in TraceSample of them; 0 or 1 logs every one).
	// Set before Listen.
	SlowThreshold time.Duration
	TraceSample   int

	// DisableTracing turns the request lifecycle tracing off entirely (no
	// span stamps, no stage histograms, no slow log). Exists for the `obs`
	// bench to measure the instrumentation's own overhead; production
	// leaves tracing always on. Set before Listen.
	DisableTracing bool
	traceOn        atomic.Bool

	// AnomalySample is the initial sampled fraction of commit decisions
	// recorded into the anomaly tap (0 disables the tap — unsampled
	// decisions cost one atomic load). Set before Listen; adjust at
	// runtime with SetAnomalySampling. The tap feeds a streaming checker
	// whose verdicts surface as the history_* metric family.
	AnomalySample float64
	anomTap       *history.Tap
	anomChecker   *history.Streaming
	anomStop      func()

	// The observability plane: stage-delta histograms per op class, the
	// self-describing registry behind opMetrics and the debug endpoints,
	// and the slow-request sampling sequence.
	stage   [numOpClasses][numStageHists]metrics.AtomicHistogram
	reg     *metrics.Registry
	regOnce sync.Once
	slowSeq atomic.Int64
}

// handlerCtx is the reusable scratch of one in-flight request: the raw
// frame, the decoded request structures (row-set arrays reused across
// requests), and the buffer the response is built into. One context is
// checked out of the server pool per frame and returned once the response
// has been handed to the connection writer, so a steady request rate is
// served with zero per-request allocation.
type handlerCtx struct {
	body    []byte                  // raw frame (request body)
	resp    []byte                  // response build buffer
	reqs    []oracle.CommitRequest  // commit-batch decode scratch
	single  oracle.CommitRequest    // single-commit decode scratch
	tss     []uint64                // query-batch decode scratch
	results []oracle.CommitResult   // CommitBatchInto result scratch
	sts     []oracle.TxnStatus      // QueryBatchInto result scratch
	preps   []oracle.PrepareRequest // commit-at-batch decode scratch (one-shot path only)
	span    metrics.Span            // request lifecycle trace, embedded so tracing allocates nothing
	op      byte                    // unwrapped op code, for per-class stage histograms
}

// getCtx checks a handler context out of the pool.
func (s *Server) getCtx() *handlerCtx {
	if c, ok := s.ctxPool.Get().(*handlerCtx); ok {
		s.poolHits.Add(1)
		return c
	}
	s.poolMisses.Add(1)
	return &handlerCtx{}
}

// putCtx returns a context once its response is buffered for write.
func (s *Server) putCtx(c *handlerCtx) {
	const maxRetained = 1 << 20
	if cap(c.body) > maxRetained || cap(c.resp) > maxRetained {
		return // oversized one-off; let the GC have it
	}
	s.ctxPool.Put(c)
}

// defaultCoalesceDelay bounds the extra latency the coalescer may add to a
// single commit while waiting for a batch to fill.
const defaultCoalesceDelay = 200 * time.Microsecond

// NewServer wraps a status oracle for network service. A nil oracle starts
// the server in standby role — the shape of a replicated-group member,
// whose ha.Member installs an oracle when it wins an election (Install)
// and removes it when it steps down (Depose).
func NewServer(so *oracle.StatusOracle) *Server {
	s := &Server{conns: make(map[net.Conn]struct{}), Logf: log.Printf}
	s.so.Store(so)
	s.initAnomaly()
	return s
}

// ErrStandby is returned (over the wire) for data operations sent to a
// server in standby role that has no leader to redirect to.
var ErrStandby = errors.New("netsrv: standby: not serving until promoted")

// oracle returns the serving oracle, nil while in standby role.
func (s *Server) oracle() *oracle.StatusOracle { return s.so.Load() }

// Promoted reports whether the server is serving an oracle.
func (s *Server) Promoted() bool { return s.oracle() != nil }

// Install makes the server serve so, replacing (and stopping) the
// coalescers of any previously served oracle. A group member's OnLead
// callback installs its freshly promoted oracle here; handlers racing the
// swap fail cleanly (the stopped coalescer rejects parked submits, and the
// fenced old oracle rejects appends), never serve torn state.
func (s *Server) Install(so *oracle.StatusOracle) {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	s.stopCoalescers()
	if so != nil {
		s.startCoalescers(so)
	}
	s.so.Store(so)
}

// Depose returns the server to standby role: data operations answer
// codeNotLeader (or ErrStandby without a LeaderHint) until the next
// Install. A group member's OnFollow callback calls it when the member
// steps down after losing its lease.
func (s *Server) Depose() { s.Install(nil) }

// stopCoalescers detaches and stops the running coalescers; submits parked
// in them fail with ErrServerClosed. Caller holds installMu (or is Close,
// after the handler drain).
func (s *Server) stopCoalescers() {
	if c := s.coal.Swap(nil); c != nil {
		c.stop()
	}
	if c := s.qcoal.Swap(nil); c != nil {
		c.stop()
	}
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. Serve loops run in background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from ln — the bring-your-own-listener
// sibling of Listen (tests inject listeners that fail Accept to exercise
// the backoff path).
func (s *Server) Serve(ln net.Listener) {
	if so := s.oracle(); so != nil {
		s.startCoalescers(so)
	}
	if s.Ingress != nil {
		s.adm = newAdmitter(*s.Ingress)
	}
	s.traceOn.Store(!s.DisableTracing)
	s.anomTap.SetSampling(s.AnomalySample)
	s.anomStop = s.anomChecker.Run(s.anomTap, anomalyDrainInterval)
	s.Registry() // materialize the metrics plane before the first request
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// SetTracing enables or disables lifecycle tracing at runtime. A request in
// flight across the flip may be stamped on one side only; recordSpan drops
// such partial spans, so the histograms never see a torn lifecycle. The
// `obs` bench toggles this to interleave traced and untraced measurement
// slices under one continuous load.
func (s *Server) SetTracing(enabled bool) { s.traceOn.Store(enabled) }

// Addr returns the listening address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Accept-loop backoff bounds for temporary Accept errors (EMFILE,
// ECONNABORTED, …): the loop sleeps with exponential backoff instead of
// either spinning or dying, and resets on the next successful accept.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// Temporary failure (out of fds, aborted handshake): back
			// off and keep accepting rather than killing the front door.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.logf("netsrv: accept: %v (retrying in %v)", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections, then waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Requests parked in the admission queues must fail before the handler
	// drain below, or their goroutines would wait forever for a grant.
	if s.adm != nil {
		s.adm.close()
	}
	// Handlers drain first (requests parked in the coalescers still get
	// their decisions), then the coalescer loops are stopped.
	s.wg.Wait()
	s.stopCoalescers()
	if s.anomStop != nil {
		s.anomStop() // final drain: every recorded decision is checked
	}
	return err
}

// startCoalescers builds the server-side coalescers for so when configured.
func (s *Server) startCoalescers(so *oracle.StatusOracle) {
	if s.CoalesceMaxBatch <= 0 {
		return
	}
	delay := s.CoalesceMaxDelay
	if delay <= 0 {
		delay = defaultCoalesceDelay
	}
	s.coal.Store(newCoalescer(so, s.CoalesceMaxBatch, delay))
	s.qcoal.Store(newQueryCoalescer(so, s.CoalesceMaxBatch, delay))
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// connWriter coalesces frame writes on one connection: a frame is framed
// into a pending buffer under the lock, and whichever goroutine finds no
// flusher active becomes the flusher, draining the pending buffer with one
// Write syscall per pass. Responses that arrive while a write syscall is in
// flight pile into the next pass, so a burst of coalesced-batch decisions
// leaves the server in one flush. The two buffers ping-pong, so the steady
// state allocates nothing.
//
// The pending buffer is bounded: a sender whose frame would grow it past
// maxPending parks on the drained condition instead of appending, so a slow
// reader exerts backpressure on its own handlers rather than growing the
// buffer without limit. A reader that stalls the flusher's Write syscall
// longer than stallTimeout fails the write deadline and is disconnected —
// backpressure first, then disconnect, never OOM.
type connWriter struct {
	mu         sync.Mutex
	drained    sync.Cond // signaled when pending is swapped out or on error
	conn       net.Conn
	pending    []byte
	spare      []byte
	flushing   bool
	err        error
	maxPending int           // 0 = unbounded
	stall      time.Duration // write deadline per flush pass; 0 = none
}

// defaultMaxPendingBytes bounds the per-connection pending write buffer
// unless the server overrides it; defaultWriteStall bounds how long a flush
// pass may sit in Write before the connection is declared dead.
const (
	defaultMaxPendingBytes = 4 << 20
	defaultWriteStall      = 5 * time.Second
)

func newConnWriter(conn net.Conn, maxPending int, stall time.Duration) *connWriter {
	if maxPending == 0 {
		maxPending = defaultMaxPendingBytes
	} else if maxPending < 0 {
		maxPending = 0 // explicit opt-out: unbounded
	}
	if stall == 0 {
		stall = defaultWriteStall
	} else if stall < 0 {
		stall = 0
	}
	w := &connWriter{conn: conn, maxPending: maxPending, stall: stall}
	w.drained.L = &w.mu
	return w
}

// maxRetainedWriteBuf caps the buffer capacity the writer keeps across
// flushes; a one-off giant response does not pin its memory forever.
const maxRetainedWriteBuf = 1 << 20

// send enqueues one frame. The error reports this connection's first write
// failure; a frame handed to an active flusher reports nil and fails the
// flusher's caller instead (all callers of send only log).
func (w *connWriter) send(body []byte) error {
	w.mu.Lock()
	// Backpressure: while another goroutine is flushing and the pending
	// buffer is at its cap, wait for the flusher to swap it out. A frame
	// larger than the whole cap is exempt (it must pass eventually).
	for w.err == nil && w.flushing && w.maxPending > 0 &&
		len(w.pending)+4+len(body) > w.maxPending && 4+len(body) <= w.maxPending {
		w.drained.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.pending = appendFrame(w.pending, body)
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for w.err == nil && len(w.pending) > 0 {
		buf := w.pending
		w.pending = w.spare[:0]
		w.spare = nil
		w.drained.Broadcast()
		w.mu.Unlock()
		if w.stall > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.stall))
		}
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		if cap(buf) <= maxRetainedWriteBuf {
			w.spare = buf[:0]
		}
		if err != nil {
			// The reader stalled past the write deadline (or the
			// connection broke): disconnect it so its handlers and
			// buffers are released instead of leaking.
			w.err = err
			w.conn.Close()
		}
	}
	w.flushing = false
	w.drained.Broadcast()
	err := w.err
	w.mu.Unlock()
	return err
}

// isDataOp reports whether op is a data-plane operation the admission gate
// applies to; control-plane ops (health, stats, routing, range
// migration, subscribe) bypass admission so operability survives overload.
func isDataOp(op byte) bool {
	switch op {
	case opBegin, opCommit, opAbort, opQuery, opForget,
		opCommitBatch, opQueryBatch,
		opPrepareBatch, opDecideBatch, opCommitAtBatch, opBeginBlock:
		return true
	}
	return false
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	w := newConnWriter(conn, s.MaxPendingBytes, s.WriteStallTimeout)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	// sessions tracks the distinct multiplexed session ids this transport
	// carries (lazily allocated — bare-frame connections never pay for it);
	// the server-wide gauge is released when the connection drops.
	var sessions map[uint32]struct{}
	defer func() {
		if n := len(sessions); n > 0 {
			s.sessions.Add(-int64(n))
		}
	}()
	maxSessions := 0
	if s.Ingress != nil {
		maxSessions = s.Ingress.MaxSessions
	}
	for {
		ctx := s.getCtx()
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		body, err := readFrameInto(conn, ctx.body)
		if err != nil {
			s.putCtx(ctx)
			return // connection closed, idle-expired or broken
		}
		ctx.body = body[:len(body):cap(body)]
		// The span's receive stamp anchors the whole lifecycle trace; with
		// tracing disabled the span is still reset (its tenant/session
		// fields route per-tenant counters) but no clock is read.
		if s.traceOn.Load() {
			ctx.span.Begin()
		} else {
			ctx.span.Reset()
		}
		reqID, op, payload, err := splitRequest(body)
		if err != nil {
			s.putCtx(ctx)
			s.logf("netsrv: bad request from %s: %v", conn.RemoteAddr(), err)
			return
		}
		// Unwrap the ingress envelope: tenant + session + deadline, then
		// the inner op. The deadline budget is anchored to this server's
		// clock here, at frame receipt.
		var deadline time.Time
		tenant := 0
		if op == opEnvelope {
			env, innerOp, innerPayload, perr := parseEnvelope(payload)
			if perr != nil {
				s.putCtx(ctx)
				s.logf("netsrv: bad envelope from %s: %v", conn.RemoteAddr(), perr)
				return
			}
			if s.adm != nil {
				tenant = s.adm.clampTenant(env.tenant)
			}
			ctx.span.Tenant = uint16(tenant)
			ctx.span.Session = env.session
			if _, ok := sessions[env.session]; !ok {
				if maxSessions > 0 && s.sessions.Load() >= int64(maxSessions) {
					resp := append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedSessions)
					if s.adm != nil {
						s.adm.tenants[tenant].shed.Add(1)
					}
					s.sendAndRecycle(w, conn, ctx, resp)
					continue
				}
				if sessions == nil {
					sessions = make(map[uint32]struct{}, 8)
				}
				sessions[env.session] = struct{}{}
				s.sessions.Add(1)
			}
			op, payload = innerOp, innerPayload
			if env.deadline > 0 {
				deadline = time.Now().Add(time.Duration(env.deadline) * time.Microsecond)
			}
		}
		ctx.op = op
		if op == opSubscribe {
			// The connection becomes a one-way event stream; handle
			// inline and stop reading requests. The context is released
			// only after the stream ends — payload aliases ctx.body.
			// Idle disconnection does not apply to a subscriber.
			conn.SetReadDeadline(time.Time{})
			s.streamEvents(conn, w, reqID, payload)
			s.putCtx(ctx)
			return
		}
		// The admission decision happens here, at the frame boundary, on
		// the connection's read goroutine: shedding costs one counter bump
		// and a 10-byte reply — no handler goroutine, no oracle work, no
		// allocation (the reply is built into the pooled context).
		mustWait := false
		gated := s.adm != nil && isDataOp(op)
		ctx.span.Gated = gated
		if gated {
			switch s.adm.tryAdmit(tenant, deadline) {
			case admitOK:
			case admitWait:
				mustWait = true
			case admitExpired:
				s.sendAndRecycle(w, conn, ctx, appendRespHdr(ctx.resp[:0], reqID, codeExpired))
				continue
			case admitRated:
				s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedRateLimited))
				continue
			default: // admitShed
				s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedQueueFull))
				continue
			}
		}
		handlers.Add(1)
		go func(tenant int, deadline time.Time, mustWait, gated bool) {
			defer handlers.Done()
			if gated {
				if mustWait {
					switch s.adm.wait(tenant, deadline) {
					case admitOK:
					case admitExpired:
						s.sendAndRecycle(w, conn, ctx, appendRespHdr(ctx.resp[:0], reqID, codeExpired))
						return
					default: // closed while parked
						s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedQueueFull))
						return
					}
					if s.traceOn.Load() {
						// Only requests that actually parked pay a clock
						// read here: the delta back to the receive stamp is
						// the admission wait. Fast-path admits leave the
						// stamp zero, which recordSpan treats as no wait.
						ctx.span.Stamp(metrics.StageAdmit)
					}
				}
				defer s.adm.release()
			}
			resp := s.handle(ctx, reqID, op, payload, deadline)
			if s.traceOn.Load() && ctx.span.At(metrics.StageApply) == 0 {
				// Ops whose oracle path does not stamp (control plane,
				// direct queries, errors): handler completion is the apply.
				ctx.span.Stamp(metrics.StageApply)
			}
			s.sendAndRecycle(w, conn, ctx, resp)
		}(tenant, deadline, mustWait, gated)
	}
}

// sendAndRecycle hands one response to the connection writer and returns the
// handler context to the pool (send copies resp into the connection's
// pending buffer, so the context and any decode scratch the response
// aliases are free for the next frame).
func (s *Server) sendAndRecycle(w *connWriter, conn net.Conn, ctx *handlerCtx, resp []byte) {
	if err := w.send(resp); err != nil {
		s.logf("netsrv: write to %s: %v", conn.RemoteAddr(), err)
	}
	if s.traceOn.Load() {
		ctx.span.Stamp(metrics.StageFlush)
		s.recordSpan(&ctx.span, ctx.op)
	}
	ctx.resp = resp[:0:cap(resp)]
	s.putCtx(ctx)
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle dispatches one request and returns the response body, built into
// ctx.resp (error responses allocate; they are off the steady-state path).
// deadline, when non-zero, is the request's absolute expiry: work that has
// already expired is answered codeExpired without touching the oracle, and
// the coalesced paths carry it into the batcher so a request that expires
// while parked is dropped at batch-cut time.
func (s *Server) handle(ctx *handlerCtx, reqID uint64, op byte, payload []byte, deadline time.Time) []byte {
	so := s.oracle()
	ok := appendRespHdr(ctx.resp[:0], reqID, codeOK)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		if s.adm != nil {
			s.adm.tenants[ctx.span.Tenant].expired.Add(1)
		}
		return appendRespHdr(ctx.resp[:0], reqID, codeExpired)
	}
	switch op {
	case opHealth:
		role := roleStandby
		if so != nil {
			role = rolePrimary
		}
		return append(ok, role)
	case opMetrics:
		// Served even in standby role: the registry's netsrv samples (and
		// the dynamic oracle source, once installed) are always gatherable.
		return metrics.AppendSamples(ok, s.Registry().Gather())
	}
	if so == nil {
		// A group member that is not leading still answers status reads
		// from its standby shadow (stale-bounded availability through
		// elections); everything else is redirected to the leader.
		if s.StandbyReads != nil {
			switch op {
			case opQuery:
				ts, err := parseU64(payload)
				if err != nil {
					return respError(reqID, err)
				}
				ctx.tss = append(ctx.tss[:0], ts)
				if sts, served := s.StandbyReads(ctx.tss, ctx.sts); served {
					ctx.sts = sts
					return appendTxnStatus(ok, sts[0])
				}
			case opQueryBatch:
				startTSs, err := decodeQueryBatchReqInto(ctx.tss, payload)
				if err != nil {
					return respError(reqID, err)
				}
				ctx.tss = startTSs
				if sts, served := s.StandbyReads(startTSs, ctx.sts); served {
					ctx.sts = sts
					return appendQueryBatchResp(ok, sts)
				}
			}
		}
		return s.respNotLeader(reqID, ErrStandby)
	}
	switch op {
	case opBegin:
		ts, err := so.Begin()
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return appendU64(ok, ts)
	case opCommit:
		err := decodeCommitReqInto(&ctx.single, payload)
		if err != nil {
			return respError(reqID, err)
		}
		// Assigned unconditionally: the decode scratch is pooled, so a
		// stale span pointer from a previous request must never survive.
		ctx.single.Span = nil
		if s.traceOn.Load() {
			ctx.single.Span = &ctx.span
		}
		var res oracle.CommitResult
		if c := s.coal.Load(); c != nil {
			res, err = c.submit(ctx.single, deadline)
		} else {
			res, err = so.Commit(ctx.single)
		}
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		s.tapCommit(&ctx.single, res)
		return encodeCommitResult(ok, res)
	case opCommitBatch:
		reqs, err := decodeCommitBatchReqInto(ctx.reqs, payload)
		if err != nil {
			return respError(reqID, err)
		}
		ctx.reqs = reqs
		for i := range reqs {
			reqs[i].Span = nil
			if s.traceOn.Load() {
				reqs[i].Span = &ctx.span
			}
		}
		results, err := so.CommitBatchInto(reqs, ctx.results)
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		ctx.results = results
		for i := range reqs {
			s.tapCommit(&reqs[i], results[i])
		}
		return appendCommitBatchResp(ok, results)
	case opAbort:
		ts, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.Abort(ts); err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return ok
	case opQuery:
		ts, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		var st oracle.TxnStatus
		if c := s.qcoal.Load(); c != nil {
			var sp *metrics.Span
			if s.traceOn.Load() {
				sp = &ctx.span
			}
			st, err = c.submit(ts, deadline, sp)
			if err != nil {
				return s.respDataErr(ctx, reqID, err)
			}
		} else {
			st = so.Query(ts)
		}
		return appendTxnStatus(ok, st)
	case opQueryBatch:
		startTSs, err := decodeQueryBatchReqInto(ctx.tss, payload)
		if err != nil {
			return respError(reqID, err)
		}
		ctx.tss = startTSs
		sts := so.QueryBatchInto(startTSs, ctx.sts)
		ctx.sts = sts
		return appendQueryBatchResp(ok, sts)
	case opPrepareBatch:
		reqs, err := decodePrepareBatchReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := s.checkOwnership(reqs); err != nil {
			return respOwnership(reqID, err)
		}
		votes, err := so.PrepareBatch(reqs)
		if err != nil {
			return respError(reqID, err)
		}
		return appendVotesResp(ok, votes)
	case opDecideBatch:
		ds, err := decodeDecideBatchReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.DecideBatch(ds); err != nil {
			return respError(reqID, err)
		}
		return ok
	case opCommitAtBatch:
		// The one-shot fast path retains nothing, so — unlike
		// opPrepareBatch — it decodes through the pooled scratch.
		reqs, err := decodePrepareBatchReqInto(ctx.preps, payload)
		if err != nil {
			return respError(reqID, err)
		}
		ctx.preps = reqs
		if err := s.checkOwnership(reqs); err != nil {
			return respOwnership(reqID, err)
		}
		results, err := so.CommitAtBatch(reqs)
		if err != nil {
			return respError(reqID, err)
		}
		return appendCommitBatchResp(ok, results)
	case opBeginBlock:
		n, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if n == 0 || n > 1<<20 {
			return respError(reqID, ErrBadFrame)
		}
		lo, err := so.BeginBlock(int(n))
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return appendU64(ok, lo)
	case opForget:
		ts, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		so.Forget(ts)
		return ok
	case opStats:
		st := so.Stats()
		st.PooledFrameHits = s.poolHits.Load()
		st.PooledFrameMisses = s.poolMisses.Load()
		st.Sessions = s.sessions.Load()
		if a := s.adm; a != nil {
			st.IngressAdmitted, st.IngressShed, st.IngressRateLimited, st.IngressExpired = a.totals()
			st.QueueDepthP99 = a.depthP99()
		}
		return appendStats(ok, st)
	case opRouting:
		rt := s.Routing()
		if rt.Router == nil {
			return respError(reqID, errors.New("netsrv: no routing table installed"))
		}
		return appendRoutingPayload(ok, rt.Epoch, rt.Spec())
	case opSetRouting:
		epoch, spec, err := parseRoutingPayload(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if s.Partitions <= 0 {
			return respError(reqID, errors.New("netsrv: server not configured for routed partitioning"))
		}
		r, err := partition.ParseRouter(spec, s.Partitions)
		if err != nil {
			return respError(reqID, err)
		}
		if !s.SetRouting(partition.RoutingTable{Epoch: epoch, Router: r}) {
			return respError(reqID, errors.New("netsrv: routing table epoch not newer than installed"))
		}
		return ok
	case opExportRange:
		lo, hi, err := parseRangeReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		rs, err := so.ExportRange(lo, hi)
		if err != nil {
			return respError(reqID, err)
		}
		return append(ok, oracle.EncodeRangeState(rs)...)
	case opApplyRange:
		rs, err := oracle.DecodeRangeState(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.ApplyRange(rs); err != nil {
			return respError(reqID, err)
		}
		return ok
	case opDiscardRange:
		lo, hi, err := parseRangeReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.DiscardRange(lo, hi); err != nil {
			return respError(reqID, err)
		}
		return ok
	default:
		return respError(reqID, errors.New("unknown operation"))
	}
}

// respDataErr renders a data-path oracle error: a request the batcher
// dropped at batch-cut time because its deadline passed answers codeExpired
// (built into the pooled context — expiry under overload is a steady-state
// path, so it must not allocate); an append that failed the epoch fence —
// this member was deposed while the request was in flight — answers
// codeNotLeader so the client follows the new leader; anything else is a
// plain error reply.
func (s *Server) respDataErr(ctx *handlerCtx, reqID uint64, err error) []byte {
	if errors.Is(err, oracle.ErrExpired) {
		if s.adm != nil {
			s.adm.tenants[ctx.span.Tenant].expired.Add(1)
		}
		return appendRespHdr(ctx.resp[:0], reqID, codeExpired)
	}
	if errors.Is(err, wal.ErrFenced) {
		return s.respNotLeader(reqID, err)
	}
	return respError(reqID, err)
}

// respNotLeader renders a request this member cannot serve because it is
// not the group's leader. With a LeaderHint configured (and a known
// leader), the reply carries the redirect payload; otherwise the fallback
// error is sent plainly, preserving the pre-group standby behavior.
func (s *Server) respNotLeader(reqID uint64, fallback error) []byte {
	if s.LeaderHint != nil {
		if epoch, addr := s.LeaderHint(); addr != "" {
			body := appendRespHdr(make([]byte, 0, 9+8+len(addr)), reqID, codeNotLeader)
			return appendRoutingPayload(body, epoch, addr)
		}
	}
	return respError(reqID, fallback)
}

// ErrMisrouted reports rows sent to a partition that does not own them.
var ErrMisrouted = errors.New("netsrv: request carries rows this partition does not own")

// SetRouting installs an epoch-fenced routing table (adopted only when
// strictly newer than the held one) and reports whether it was adopted.
// With a table installed, ownership checks consult it instead of OwnsRow
// and misroutes answer codeRedirect.
func (s *Server) SetRouting(rt partition.RoutingTable) bool {
	if rt.Router == nil {
		return false
	}
	s.routingMu.Lock()
	defer s.routingMu.Unlock()
	if rt.Epoch <= s.routing.Epoch {
		return false
	}
	s.routing = rt
	return true
}

// Routing returns the installed routing table (zero-valued when none).
func (s *Server) Routing() partition.RoutingTable {
	s.routingMu.Lock()
	defer s.routingMu.Unlock()
	return s.routing
}

// checkOwnership rejects prepare/one-shot slices carrying rows this
// partition does not own — atomically, before the oracle touches any state,
// which is what makes a whole-group retry after a redirect safe. Under a
// routing table the rejection is a *partition.MisrouteError (rendered as
// codeRedirect); under legacy OwnsRow it is ErrMisrouted.
func (s *Server) checkOwnership(reqs []oracle.PrepareRequest) error {
	if rt := s.Routing(); rt.Router != nil {
		for i := range reqs {
			for _, r := range reqs[i].WriteSet {
				if rt.Router.Partition(r) != s.PartitionID {
					return &partition.MisrouteError{Epoch: rt.Epoch, Spec: rt.Spec()}
				}
			}
			for _, r := range reqs[i].ReadSet {
				if rt.Router.Partition(r) != s.PartitionID {
					return &partition.MisrouteError{Epoch: rt.Epoch, Spec: rt.Spec()}
				}
			}
		}
		return nil
	}
	if s.OwnsRow == nil {
		return nil
	}
	for i := range reqs {
		for _, r := range reqs[i].WriteSet {
			if !s.OwnsRow(r) {
				return ErrMisrouted
			}
		}
		for _, r := range reqs[i].ReadSet {
			if !s.OwnsRow(r) {
				return ErrMisrouted
			}
		}
	}
	return nil
}

// respOwnership renders an ownership failure: redirects carry the routing
// table for client self-healing, legacy misroutes stay plain errors.
func respOwnership(reqID uint64, err error) []byte {
	if mr := partition.AsMisroute(err); mr != nil {
		body := appendRespHdr(make([]byte, 0, 9+8+len(mr.Spec)), reqID, codeRedirect)
		return appendRoutingPayload(body, mr.Epoch, mr.Spec)
	}
	return respError(reqID, err)
}

// streamEvents acknowledges the subscription and forwards the oracle's
// notification stream until the connection breaks.
func (s *Server) streamEvents(conn net.Conn, w *connWriter, reqID uint64, payload []byte) {
	buffer := 0
	if len(payload) == 8 {
		buffer = int(binary.BigEndian.Uint64(payload))
	}
	so := s.oracle()
	if so == nil {
		_ = w.send(respError(reqID, ErrStandby))
		return
	}
	sub := so.Subscribe(buffer)
	defer sub.Close()
	// Watch the connection: when the peer (or Server.Close) tears it
	// down, close the subscription so the forwarding loop below exits
	// instead of blocking forever on an idle event channel.
	go func() {
		for {
			if _, err := readFrame(conn); err != nil {
				sub.Close()
				return
			}
		}
	}()
	if err := w.send(respOK(reqID, nil)); err != nil {
		return
	}
	body := make([]byte, 0, 9+16)
	for e := range sub.C {
		// send copies the frame into the connection's pending buffer, so
		// one event buffer serves the whole stream.
		body = appendRespHdr(body[:0], 0, codeEvent)
		body = appendU64(body, e.StartTS)
		body = appendU64(body, e.CommitTS)
		if err := w.send(body); err != nil {
			return
		}
	}
}
