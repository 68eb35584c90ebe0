package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/wal"
)

// counters is a snapshot of the cumulative counters the per-layer table
// differences over the timed phase.
type counters struct {
	at       time.Time
	so       oracle.Stats
	appends  int64 // AppendBatch calls on the first replica
	bytes    int64 // bytes appended to the first replica
	entries  int64 // wal_entries_appended_total
	gcCycles float64
	gcCPU    float64
	cpu      float64
	compQ    int64 // oracle Query calls made by the compactor
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshotCounters(st *stack, comp *compactor) counters {
	c := counters{at: time.Now(), so: st.so.Stats(), compQ: comp.queries.Load()}
	c.appends = st.ledgers[0].appends.Load()
	c.bytes = st.ledgers[0].bytes.Load()
	st.writer.MetricsSource()(func(s metrics.Sample) {
		if s.Name == "wal_entries_appended_total" {
			c.entries = s.Value
		}
	})
	rs := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		rs[i].Name = n
	}
	rtmetrics.Read(rs)
	c.gcCycles = rtValue(rs[0])
	c.gcCPU = rtValue(rs[1])
	c.cpu = rtValue(rs[2])
	return c
}

func rtValue(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapSampler reads the live heap object bytes.
type heapSampler struct{ s []rtmetrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() float64 {
	rtmetrics.Read(h.s)
	return rtValue(h.s[0]) / (1 << 20)
}

// result is everything one run measured.
type result struct {
	sp        *spec
	traced    bool
	setupS    []float64
	nom       *phase
	rungs     []rungResult
	slo       float64
	closed    *phase
	peakRates []float64 // saturation-phase commit rate per window
	phases    []*phase
	invisible int
	lost      int
	acked     int
	tr        *tracer
	base, end counters
	samples   []metrics.Sample
	comp      *compactor
	versions  int
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name, unit string
	value      float64
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func updOf(w *windowRec) []float64 { return w.upd }
func roOf(w *windowRec) []float64  { return w.ro }

// endToEnd computes the end-to-end metrics of the result line: latency at
// the nominal rate from the timed phase and the ladder's SLO throughput.
func (r *result) endToEnd() []metric {
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"update_p50_ms", "ms", quantile(r.nom.upd, 0.5)},
		{"readonly_p50_ms", "ms", quantile(r.nom.ro, 0.5)},
		{"slo_tps", "1/s", r.slo},
	}
}

// reported are the end-to-end metrics printed but left out of the result
// line: run to run they spread by more than any bound the benchmark could
// hold them to on a shared two-core machine. Tail latency follows GC
// cycles and stolen CPU, write-durable's saturation throughput follows the
// disk's fsync time, read-mostly sees a handful of aborts a run, and
// failed_pct is 0 at these rates (the result line's failed count carries
// it). peak_tps is the upper quartile of the saturation phase's per-window
// commit rates, which a briefly stolen core moves less than the median.
func (r *result) reported() []metric {
	_, u99, _ := blockTail(r.nom.windows, updOf)
	_, ro99, _ := blockTail(r.nom.windows, roOf)
	txns, failed, _ := r.attempted()
	return []metric{
		{"update_p99_ms", "ms", u99},
		{"readonly_p99_ms", "ms", ro99},
		{"peak_tps", "1/s", quantile(r.peakRates, 0.75)},
		{"abort_pct", "%", pct(r.closed.aborts, r.closed.attempts)},
		{"failed_pct", "%", pct(failed, txns)},
	}
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// stage returns the server-side stage histogram for an op class.
func (r *result) stage(op, name string) metrics.HistogramSummary {
	want := "netsrv_stage_" + name + `_ns{op="` + op + `"}`
	for _, s := range r.samples {
		if s.Name == want {
			return s.Hist
		}
	}
	return metrics.HistogramSummary{}
}

var stageNames = []string{"admission_wait", "coalesce_wait", "wal_durable", "decide", "flush", "total"}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func meanUS(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count) / 1e3
}

// perLayer computes the per-layer metrics of the timed phase.
func (r *result) perLayer() []metric {
	tr := r.tr
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	hist := func(name string, p probe) {
		h := tr.snapshot(p)
		add(name+"_p50_us", "us", us(h.Quantile(0.5)))
		add(name+"_p99_us", "us", us(h.Quantile(0.99)))
	}
	// txn.
	hist("txn.begin", pTxnBegin)
	hist("txn.getmulti", pTxnGetMulti)
	hist("txn.put", pTxnPut)
	hist("txn.commit_update", pTxnCommitUpdate)
	hist("txn.commit_readonly", pTxnCommitReadOnly)
	add("txn.committed_ratio", "ratio", ratio(float64(r.nom.commits), float64(r.nom.commits+r.nom.aborts+r.nom.failed)))
	// netsrv, client side.
	hist("netsrv.client_begin_rtt", pRTTBegin)
	hist("netsrv.client_commit_rtt", pRTTCommit)
	hist("netsrv.client_query_rtt", pRTTQuery)
	hist("netsrv.client_querybatch_rtt", pRTTQueryBatch)
	qb := tr.snapshot(pRTTQueryBatch)
	add("netsrv.lookups_per_querybatch", "count", ratio(float64(tr.lookups.Load()), float64(qb.Count())))
	// netsrv, server side.
	for _, op := range []string{"commit", "query"} {
		for _, s := range stageNames {
			if op == "query" && s == "wal_durable" {
				continue // lookups never wait for the log
			}
			add("netsrv.server_"+op+"_"+s+"_p50_us", "us", us(r.stage(op, s).P50))
		}
		add("netsrv.server_"+op+"_total_p99_us", "us", us(r.stage(op, "total").P99))
	}
	rtt := tr.snapshot(pRTTCommit)
	add("netsrv.loopback_residual_us", "us", us(rtt.Quantile(0.5))-us(r.stage("commit", "total").P50))
	add("netsrv.server_commit_unmeasured_us", "us", r.serverUnmeasured("commit"))
	// oracle, over the timed phase.
	b, e := r.base.so, r.end.so
	batchTxns := e.BatchSizeAvg*float64(e.Batches) - b.BatchSizeAvg*float64(b.Batches)
	add("oracle.batch_size_avg", "count", ratio(batchTxns, float64(e.Batches-b.Batches)))
	compQ := float64(r.end.compQ - r.base.compQ)
	add("oracle.query_batch_size_avg", "count",
		ratio(float64(e.Queries-b.Queries)-compQ, float64(e.QueryBatches-b.QueryBatches)-compQ))
	updates := float64(e.Commits - b.Commits)
	add("oracle.aborts_per_update", "ratio", ratio(float64(e.ConflictAborts-b.ConflictAborts), updates+float64(e.ConflictAborts-b.ConflictAborts)))
	add("oracle.tmax_aborts", "count", float64(e.TmaxAborts-b.TmaxAborts))
	add("oracle.table_load_factor", "ratio", e.TableLoadFactor)
	add("oracle.rehashes", "count", float64(e.Rehashes))
	// tso: begins are the "other" op class.
	add("tso.begin_total_p50_us", "us", us(r.stage("other", "total").P50))
	add("tso.begin_total_p99_us", "us", us(r.stage("other", "total").P99))
	// wal.
	hist("wal.append", pWALAppend)
	secs := r.end.at.Sub(r.base.at).Seconds()
	appends := float64(r.end.appends - r.base.appends)
	add("wal.batches_per_s", "1/s", ratio(appends, secs))
	add("wal.appends_per_update", "ratio", ratio(appends, updates))
	add("wal.entries_per_update", "ratio", ratio(float64(r.end.entries-r.base.entries), updates))
	add("wal.bytes_per_update", "B", ratio(float64(r.end.bytes-r.base.bytes), updates))
	// kvstore.
	add("kvstore.versions_per_row", "ratio", float64(r.versions)/float64(r.sp.rows))
	r.comp.mu.Lock()
	passes, removed := append([]float64(nil), r.comp.passMS...), r.comp.removed
	yield := 0.0
	for _, n := range removed {
		yield += float64(n)
	}
	r.comp.mu.Unlock()
	add("kvstore.compact_pass_p50_ms", "ms", quantile(passes, 0.5))
	add("kvstore.compact_pass_max_ms", "ms", quantile(passes, 1))
	add("kvstore.compact_yield_avg", "count", ratio(yield, float64(len(passes))))
	// Go runtime, over the timed phase.
	heapMax := 0.0
	for _, w := range r.nom.windows {
		heapMax = math.Max(heapMax, w.heapMB)
	}
	add("runtime.heap_max_mb", "MiB", heapMax)
	add("runtime.gc_cycles", "count", r.end.gcCycles-r.base.gcCycles)
	add("runtime.gc_cpu_pct", "%", 100*ratio(r.end.gcCPU-r.base.gcCPU, r.end.cpu-r.base.cpu))
	// The load generator and the tracing itself.
	_, late99, _ := tailQuantile(r.nom.late)
	add("load.lateness_p99_ms", "ms", late99)
	p99Trend, heapTrend := r.trend()
	add("load.window_p99_trend", "ratio", p99Trend)
	add("runtime.heap_trend", "ratio", heapTrend)
	add("trace.overhead_update_p50_pct", "%", overheadPct(r.splitWindows(updOf)))
	add("trace.overhead_readonly_p50_pct", "%", overheadPct(r.splitWindows(roOf)))
	return out
}

// serverUnmeasured is the mean server residence time of an op class not
// covered by its stage histograms: total minus the sum of the stages.
func (r *result) serverUnmeasured(op string) float64 {
	total := r.stage(op, "total")
	var staged int64
	for _, s := range stageNames[:len(stageNames)-1] {
		staged += r.stage(op, s).Sum
	}
	return meanUS(total.Sum-staged, total.Count)
}

// splitWindows returns one class's latencies in the traced and the
// untraced windows of the timed phase.
func (r *result) splitWindows(class func(*windowRec) []float64) (on, off []float64) {
	for _, w := range r.nom.windows {
		if w.traced {
			on = append(on, class(w)...)
		} else {
			off = append(off, class(w)...)
		}
	}
	return on, off
}

// overheadPct is how much higher the traced windows' p50 is than the
// untraced windows', in percent.
func overheadPct(on, off []float64) float64 {
	return 100 * (ratio(quantile(on, 0.5), quantile(off, 0.5)) - 1)
}

// trend compares the last third of the timed windows with the first
// third: the median per-window p99 of all transactions, and the median
// heap size. Above trendFlag the run is flagged as not steady.
func (r *result) trend() (p99, heap float64) {
	ws := r.nom.windows
	n := len(ws) / 3
	if n == 0 {
		return 1, 1
	}
	third := func(ws []*windowRec) (p99, heap float64) {
		var p99s, heaps []float64
		for _, w := range ws {
			p99s = append(p99s, quantile(append(append([]float64(nil), w.upd...), w.ro...), 0.99))
			heaps = append(heaps, w.heapMB)
		}
		return median(p99s), median(heaps)
	}
	lp, lh := third(ws[len(ws)-n:])
	fp, fh := third(ws[:n])
	return ratio(lp, fp), ratio(lh, fh)
}

const trendFlag = 1.5

func (r *result) attempted() (txns, failed int64, firstErr error) {
	for _, p := range r.phases {
		txns += p.txns
		failed += p.failed
		if firstErr == nil {
			firstErr = p.firstErr
		}
	}
	return txns, failed, firstErr
}

// print writes the human-readable report and, last, the result line.
func (r *result) print(w io.Writer) error {
	sp := r.sp
	fmt.Fprintf(w, "workload %s (seed-driven, %s)\n  why: %s\n", sp.name, map[bool]string{true: "traced", false: "untraced"}[r.traced], sp.why)
	e2e := r.endToEnd()
	fmt.Fprintf(w, "\nend-to-end (timed phase at %.0f txn/s, %d update and %d read-only samples):\n", sp.nominal, len(r.nom.upd), len(r.nom.ro))
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-18s %12.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.reported() {
		fmt.Fprintf(w, "  %-18s %12.4f %s (reported, not in the result line)\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "  (latencies from the scheduled arrival in the timed phase; slo_tps the goodput of the highest ladder rung\n"+
		"   that met the limit; peak_tps the upper quartile of the saturation phase's per-second commit rates;\n"+
		"   abort_pct conflict aborts per update attempt in the saturation phase)\n")
	uq, _, ub := blockTail(r.nom.windows, updOf)
	rq, _, rb := blockTail(r.nom.windows, roOf)
	_, upool, _ := tailQuantile(r.nom.upd)
	_, ropool, _ := tailQuantile(r.nom.ro)
	fmt.Fprintf(w, "  (tails: update p%g median over %d blocks, pooled %.3f ms; read-only p%g median over %d blocks, pooled %.3f ms)\n",
		100*uq, ub, upool, 100*rq, rb, ropool)
	fmt.Fprintf(w, "  (set-up times %v s; abort %% at the nominal rate %.4f)\n", fmtList(r.setupS), pct(r.nom.aborts, r.nom.attempts))
	txns, failed, firstErr := r.attempted()
	fmt.Fprintf(w, "  (failed: %d of %d transactions over all measured phases; %d timed-phase arrivals still waiting when its schedule ended)\n",
		failed, txns, r.nom.backlog)
	if firstErr != nil {
		fmt.Fprintf(w, "  (first failure: %v)\n", firstErr)
	}

	fmt.Fprintf(w, "\nSLO ladder (limit: update p99 <= %.0f ms, backlog <= %.0f ms of arrivals):\n", sp.limitMS, sp.limitMS)
	for _, rg := range r.rungs {
		fmt.Fprintf(w, "  %7.0f txn/s  goodput=%8.1f/s  p%g=%9.2f ms  samples=%6d  backlog=%5d  %s\n",
			rg.rate, rg.goodput, 100*rg.q, rg.p99, rg.samples, rg.backlog, map[bool]string{true: "pass", false: "FAIL"}[rg.pass])
	}
	fmt.Fprintf(w, "saturation: %d sessions, committed txn/s per %v window: %s; abort %.2f%% of %d update attempts\n",
		sp.sessions, window, fmtList(r.peakRates), pct(r.closed.aborts, r.closed.attempts), r.closed.attempts)

	fmt.Fprintf(w, "\ntimed-phase windows (%v):\n", window)
	for i, win := range r.nom.windows {
		fmt.Fprintf(w, "  %2d  update p50=%7.2f p99=%8.2f ms  n=%5d  heap=%6.1f MiB%s\n", i, quantile(win.upd, 0.5), quantile(win.upd, 0.99), len(win.upd), win.heapMB, map[bool]string{true: "  traced", false: ""}[win.traced])
	}
	p99Trend, heapTrend := r.trend()
	steady := "steady"
	if p99Trend > trendFlag || heapTrend > trendFlag {
		steady = "WARNING: trends upward"
	}
	fmt.Fprintf(w, "  last/first third of the windows: p99 x%.2f, heap x%.2f (flag above x%.1f): %s\n", p99Trend, heapTrend, trendFlag, steady)
	_, late99, _ := tailQuantile(r.nom.late)
	p50 := quantile(r.nom.upd, 0.5)
	lateOK := late99 <= maxLateFrac*p50
	fmt.Fprintf(w, "generator lateness p50 %.3f p99 %.3f max %.3f ms (p99 limit %.1f x update_p50 = %.3f ms): %s\n",
		quantile(r.nom.late, 0.5), late99, quantile(r.nom.late, 1), maxLateFrac, maxLateFrac*p50, map[bool]string{true: "ok", false: "REJECTED"}[lateOK])
	fmt.Fprintf(w, "checks: %d acked update commits, %d not visible at their commit timestamp, %d lost by recovery\n", r.acked, r.invisible, r.lost)

	res := jsonResult{
		Correct:   r.invisible == 0 && r.lost == 0 && lateOK,
		Attempted: txns,
		Failed:    failed,
		Metrics:   map[string]jsonMetric{},
	}
	ms := e2e
	if r.traced {
		ms = r.perLayer()
		r.printLayers(w, ms)
	}
	for _, m := range ms {
		if math.IsInf(m.value, 0) || math.IsNaN(m.value) {
			// More than 1% of the class missed every limit.
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

// printLayers prints the per-layer table and reconciles it: client round
// trips against server residence, server residence against its stages.
func (r *result) printLayers(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "\nper-layer (timed phase; benchmark probes in traced windows only):\n")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-42s %12.3f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "\nprobe call counts and means (traced windows):\n")
	for p := probe(0); p < numProbes; p++ {
		h := r.tr.snapshot(p)
		fmt.Fprintf(w, "  %-28s n=%8d mean=%9.1f us\n", probeNames[p], h.Count(), meanUS(h.Sum(), h.Count()))
	}
	fmt.Fprintf(w, "\nreconciliation (means, us):\n")
	meanOf := func(ps ...probe) float64 {
		var sum, n int64
		for _, p := range ps {
			h := r.tr.snapshot(p)
			sum += h.Sum()
			n += h.Count()
		}
		return meanUS(sum, n)
	}
	commit, commitRTT := meanOf(pTxnCommitUpdate, pTxnCommitReadOnly), meanOf(pRTTCommit)
	fmt.Fprintf(w, "  txn    Commit %9.1f = netsrv Commit RTT %9.1f + txn-side residual %9.1f\n", commit, commitRTT, commit-commitRTT)
	begin, beginRTT := meanOf(pTxnBegin), meanOf(pRTTBegin)
	fmt.Fprintf(w, "  txn    Begin  %9.1f = netsrv Begin RTT  %9.1f + txn-side residual %9.1f\n", begin, beginRTT, begin-beginRTT)
	// GetMulti issues at most one status round trip per call.
	gm := r.tr.snapshot(pTxnGetMulti)
	var lookupSum int64
	for _, p := range []probe{pRTTQuery, pRTTQueryBatch} {
		h := r.tr.snapshot(p)
		lookupSum += h.Sum()
	}
	fmt.Fprintf(w, "  txn    GetMulti %7.1f = status round trips %9.1f + store reads and txn-side residual %9.1f\n",
		meanUS(gm.Sum(), gm.Count()), meanUS(lookupSum, gm.Count()), meanUS(gm.Sum()-lookupSum, gm.Count()))
	for _, rc := range []struct {
		op    string
		probe []probe
	}{{"commit", []probe{pRTTCommit}}, {"query", []probe{pRTTQuery, pRTTQueryBatch}}, {"other", []probe{pRTTBegin}}} {
		var sum, n int64
		for _, p := range rc.probe {
			h := r.tr.snapshot(p)
			sum += h.Sum()
			n += h.Count()
		}
		client := meanUS(sum, n)
		total := r.stage(rc.op, "total")
		server := meanUS(total.Sum, total.Count)
		fmt.Fprintf(w, "  %-6s client RTT %9.1f = server total %9.1f + loopback residual %9.1f\n", rc.op, client, server, client-server)
		var parts []string
		for _, s := range stageNames[:len(stageNames)-1] {
			parts = append(parts, fmt.Sprintf("%s %.1f", s, meanUS(r.stage(rc.op, s).Sum, total.Count)))
		}
		fmt.Fprintf(w, "         server total %9.1f = %s + unmeasured %.1f\n", server, strings.Join(parts, " + "), r.serverUnmeasured(rc.op))
	}
	for _, c := range []struct {
		name  string
		class func(*windowRec) []float64
	}{{"update", updOf}, {"read-only", roOf}} {
		on, off := r.splitWindows(c.class)
		fmt.Fprintf(w, "tracing overhead: %s p50 %.3f ms in traced vs %.3f ms in untraced windows (%d/%d samples): %+.2f%%\n",
			c.name, quantile(on, 0.5), quantile(off, 0.5), len(on), len(off), overheadPct(on, off))
	}
}

// checkRecovered reopens the stack's WAL, recovers the oracle from it and
// counts acked commits the recovered oracle lacks or holds at another
// commit timestamp.
func checkRecovered(st *stack, acks [][2]uint64) (int, error) {
	var l wal.Ledger = st.ledgers[0].Ledger
	if st.file != nil {
		fl, err := wal.OpenFileLedgerReader(st.walPath)
		if err != nil {
			return 0, err
		}
		defer fl.Close()
		l = fl
	}
	so, _, err := oracle.RecoverState(oracleConfig(), l, nil, 0)
	if err != nil {
		return 0, err
	}
	return countMismatches(so, acks), nil
}
