package netsrv

import (
	"fmt"

	"repro/internal/metrics"
)

// Stage-delta histogram indices: each is the time between two span stamps,
// recorded per op class. Together they decompose a request's server-side
// residence time end to end.
const (
	histAdmissionWait = iota // admission gate passed − frame received (requests that parked only)
	histCoalesceWait         // batch cut − admitted (accumulation wait)
	histWALDurable           // WAL group append durable − batch cut (commit ops only)
	histDecide               // decision applied − durable (or − cut when no WAL leg)
	histFlush                // response handed to socket − applied
	histTotal                // response handed to socket − frame received
	numStageHists
)

var stageHistNames = [numStageHists]string{
	"netsrv_stage_admission_wait_ns",
	"netsrv_stage_coalesce_wait_ns",
	"netsrv_stage_wal_durable_ns",
	"netsrv_stage_decide_ns",
	"netsrv_stage_flush_ns",
	"netsrv_stage_total_ns",
}

// Op classes partition the wire ops into the families whose latency stories
// differ, labeling the stage histograms without exploding one series per op.
const (
	classCommit = iota // opCommit, opCommitBatch, opCommitAtBatch
	classQuery         // opQuery, opQueryBatch
	classOther         // everything else (begin, abort, control plane, …)
	numOpClasses
)

var opClassNames = [numOpClasses]string{"commit", "query", "other"}

func opClass(op byte) int {
	switch op {
	case opCommit, opCommitBatch, opCommitAtBatch:
		return classCommit
	case opQuery, opQueryBatch:
		return classQuery
	}
	return classOther
}

// opName renders an op code for the slow-request log.
func opName(op byte) string {
	switch op {
	case opBegin:
		return "begin"
	case opCommit:
		return "commit"
	case opAbort:
		return "abort"
	case opQuery:
		return "query"
	case opForget:
		return "forget"
	case opCommitBatch:
		return "commit-batch"
	case opQueryBatch:
		return "query-batch"
	case opPrepareBatch:
		return "prepare-batch"
	case opDecideBatch:
		return "decide-batch"
	case opCommitAtBatch:
		return "commit-at-batch"
	case opBeginBlock:
		return "begin-block"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// initRegistry builds the server's metrics registry and registers the netsrv
// source (pool/session gauges, stage histograms, per-tenant ingress
// breakdown) plus a dynamic oracle source that follows standby promotion.
func (s *Server) initRegistry() {
	s.reg = metrics.NewRegistry()
	s.reg.Register(func(emit func(metrics.Sample)) {
		emit(metrics.C("netsrv_pooled_frame_hits_total", s.poolHits.Load()))
		emit(metrics.C("netsrv_pooled_frame_misses_total", s.poolMisses.Load()))
		emit(metrics.G("netsrv_sessions", float64(s.sessions.Load())))
		for c := range s.stage {
			label := `{op="` + opClassNames[c] + `"}`
			for i := range s.stage[c] {
				emit(metrics.HAtomic(stageHistNames[i]+label, &s.stage[c][i]))
			}
		}
		if a := s.adm; a != nil {
			a.metricsInto(emit)
		}
	})
	s.reg.Register(func(emit func(metrics.Sample)) {
		// Resolved per gather: a standby has no oracle until it is installed.
		if so := s.oracle(); so != nil {
			so.MetricsSource()(emit)
		}
	})
	s.reg.Register(s.anomChecker.MetricsSource())
}

// Registry returns the server's metrics registry, creating it on first use.
// Additional sources (the WAL writer, a standby, a partition coordinator)
// may be registered at any time; they appear in the next gather.
func (s *Server) Registry() *metrics.Registry {
	s.regOnce.Do(s.initRegistry)
	return s.reg
}

// recordSpan folds one completed request's span into the per-stage
// histograms and, past the slow threshold, emits a sampled exemplar log
// line. Called after the flush stamp, on the handler goroutine; everything
// on the always-on path is atomic adds — the log line is the only allocating
// step and only runs for sampled slow requests.
func (s *Server) recordSpan(sp *metrics.Span, op byte) {
	apply := sp.At(metrics.StageApply)
	recv := sp.At(metrics.StageRecv)
	if apply == 0 || recv == 0 {
		// Shed / expired before serving (the ingress counters already
		// account for those), or a span torn by a runtime SetTracing flip:
		// a stage breakdown would be meaningless.
		return
	}
	admit := sp.At(metrics.StageAdmit)
	cut := sp.At(metrics.StageCut)
	wal := sp.At(metrics.StageWAL)
	flush := sp.At(metrics.StageFlush)
	st := &s.stage[opClass(op)]
	if admit != 0 && admit >= recv {
		// Only requests that parked at the admission gate carry a stamp;
		// fast-path admits wait ~0 and are not worth a clock read.
		st[histAdmissionWait].Record(admit - recv)
	}
	base := admit
	if base == 0 {
		base = recv
	}
	if cut >= base && cut != 0 {
		st[histCoalesceWait].Record(cut - base)
	}
	dbase := cut
	if wal != 0 && cut != 0 {
		st[histWALDurable].Record(wal - cut)
		dbase = wal
	}
	if dbase == 0 {
		// Ops that never reach a batch cut (control plane, direct
		// queries): decide covers the whole serve time.
		dbase = base
	}
	if apply >= dbase {
		st[histDecide].Record(apply - dbase)
	}
	if flush >= apply {
		st[histFlush].Record(flush - apply)
	}
	total := flush - recv
	st[histTotal].Record(total)
	if thr := int64(s.SlowThreshold); thr > 0 && total >= thr {
		sample := int64(s.TraceSample)
		if sample <= 0 {
			sample = 1
		}
		if s.slowSeq.Add(1)%sample == 0 {
			s.logSlow(sp, op, total)
		}
	}
}

// logSlow emits one structured exemplar line for a sampled slow request:
// every stage delta plus tenant and session ids, enough to attribute the
// whole residence time to a layer without a profiler.
func (s *Server) logSlow(sp *metrics.Span, op byte, total int64) {
	ms := func(a, b int64) float64 {
		if a == 0 || b == 0 || b < a {
			return 0
		}
		return float64(b-a) / 1e6
	}
	recv := sp.At(metrics.StageRecv)
	admit := sp.At(metrics.StageAdmit) // zero unless the request parked
	cut := sp.At(metrics.StageCut)
	wal := sp.At(metrics.StageWAL)
	apply := sp.At(metrics.StageApply)
	flush := sp.At(metrics.StageFlush)
	base := admit
	if base == 0 {
		base = recv
	}
	applyBase := wal // no WAL leg (queries, read-only): fall back
	if applyBase == 0 {
		applyBase = cut
	}
	if applyBase == 0 {
		applyBase = base
	}
	s.logf("netsrv: slow request op=%s tenant=%d session=%d total=%.3fms admission=%.3fms coalesce=%.3fms wal=%.3fms apply=%.3fms flush=%.3fms",
		opName(op), sp.Tenant, sp.Session, float64(total)/1e6,
		ms(recv, admit), ms(base, cut), ms(cut, wal),
		ms(applyBase, apply), ms(apply, flush))
}
