package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// The overhead experiment's fixed parameters: an in-memory oracle (no WAL
// throttle) so the commit round-trip is as lean as it gets and the tracing
// cost is NOT hidden behind I/O — this is the worst case for the span.
const (
	obsRows     = int64(1) << 30
	obsConns    = 4
	obsSessions = 64
	// The gate: tracing must cost at most this fraction of peak commit
	// throughput on the leanest hot path we have.
	obsMaxOverheadPct = 3.0
)

// obsReport is the BENCH_obs.json schema.
type obsReport struct {
	Experiment     string           `json:"experiment"`
	Quick          bool             `json:"quick"`
	Slices         int              `json:"slices_per_mode"`
	SliceMs        float64          `json:"slice_ms"`
	TPSTracingOff  float64          `json:"tps_tracing_off"` // median slice rate
	TPSTracingOn   float64          `json:"tps_tracing_on"`  // median slice rate
	OverheadPct    float64          `json:"overhead_pct"`    // (off-on)/off of the medians, clamped at 0
	StageP99Ns     map[string]int64 `json:"stage_p99_ns"`    // from the traced server's registry
	TenantAdmitted map[string]int64 `json:"tenant_admitted"` // per-tenant ingress view
}

// obsInterleaved runs ONE continuous closed-loop commit load and flips the
// server's tracing on and off in alternating time slices, crediting each
// slice's commit count to its mode. Both modes therefore share the same
// process, heap, connections and background noise; a box-speed wobble lands
// on adjacent slices of both modes instead of biasing whichever mode ran
// second, and the medians of the two slice-rate populations compare the
// instrumentation alone.
func obsInterleaved(slices int, slice time.Duration) (ratesOn, ratesOff []float64, samples []metrics.Sample, err error) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		return nil, nil, nil, err
	}
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	srv.CoalesceMaxBatch = 64
	// Admission on, so the traced path includes the gate stamp — the full
	// production span, not a shortcut.
	srv.Ingress = &netsrv.IngressConfig{Tenants: 1}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	defer srv.Close()
	m, err := netsrv.DialMux(addr, obsConns)
	if err != nil {
		return nil, nil, nil, err
	}
	defer m.Close()

	var (
		stop      atomic.Bool
		committed atomic.Int64
		wg        sync.WaitGroup
	)
	for g := 0; g < obsSessions; g++ {
		s := m.Session(0)
		wg.Add(1)
		go func(s *netsrv.Session, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				ts, err := s.Begin()
				if err != nil {
					return
				}
				res, err := s.Commit(oracle.CommitRequest{
					StartTS:  ts,
					WriteSet: []oracle.RowID{oracle.RowID(rng.Int63n(obsRows))},
				})
				if err != nil {
					return
				}
				if res.Committed {
					committed.Add(1)
				}
			}
		}(s, int64(g)*7919+3)
	}
	time.Sleep(500 * time.Millisecond) // warm up: pools, coalescer, scheduler

	for k := 0; k < 2*slices; k++ {
		traced := k%2 == 0
		srv.SetTracing(traced)
		before := committed.Load()
		start := time.Now()
		time.Sleep(slice)
		rate := float64(committed.Load()-before) / time.Since(start).Seconds()
		if traced {
			ratesOn = append(ratesOn, rate)
		} else {
			ratesOff = append(ratesOff, rate)
		}
	}
	srv.SetTracing(true)

	c, err := netsrv.Dial(addr)
	if err == nil {
		samples, _ = c.Metrics()
		c.Close()
	}
	stop.Store(true)
	wg.Wait()
	if len(ratesOn) == 0 || len(ratesOff) == 0 {
		return nil, nil, nil, errors.New("obs: no slices measured")
	}
	return ratesOn, ratesOff, samples, nil
}

func obsMedian(rates []float64) float64 {
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func init() {
	register(Experiment{
		Name:  "obs",
		Title: "Observability overhead: commit round-trip with lifecycle tracing on vs off",
		Run: func(quick bool) (string, error) {
			slices, slice := 40, 400*time.Millisecond
			if quick {
				slices, slice = 20, 250*time.Millisecond
			}
			ratesOn, ratesOff, traced, err := obsInterleaved(slices, slice)
			if err != nil {
				return "", err
			}
			medOn, medOff := obsMedian(ratesOn), obsMedian(ratesOff)
			overhead := 0.0
			if medOff > 0 && medOff > medOn {
				overhead = (medOff - medOn) / medOff * 100
			}

			rep := obsReport{
				Experiment: "obs", Quick: quick,
				Slices: slices, SliceMs: float64(slice) / float64(time.Millisecond),
				TPSTracingOff: medOff, TPSTracingOn: medOn,
				OverheadPct:    overhead,
				StageP99Ns:     map[string]int64{},
				TenantAdmitted: map[string]int64{},
			}
			for _, s := range traced {
				if strings.HasPrefix(s.Name, "netsrv_stage_") && strings.Contains(s.Name, `{op="commit"}`) {
					stage := strings.TrimSuffix(strings.TrimPrefix(s.Name, "netsrv_stage_"), `_ns{op="commit"}`)
					rep.StageP99Ns[stage] = s.Hist.P99
				}
				if strings.HasPrefix(s.Name, `netsrv_ingress_admitted_total{tenant=`) {
					tenant := strings.TrimSuffix(strings.TrimPrefix(s.Name, `netsrv_ingress_admitted_total{tenant="`), `"}`)
					rep.TenantAdmitted[tenant] = s.Value
				}
			}

			var b strings.Builder
			b.WriteString(header("Observability overhead — hot-path tracing on vs off"))
			fmt.Fprintf(&b, "\nclosed-loop single commits, %d sessions over %d connections, in-memory\n", obsSessions, obsConns)
			fmt.Fprintf(&b, "oracle (no WAL); one continuous load, tracing flipped every %v for\n", slice)
			fmt.Fprintf(&b, "%d slices per mode, comparing the median slice rates:\n\n", slices)
			fmt.Fprintf(&b, "  tracing off: %10.0f commits/s (median slice)\n", medOff)
			fmt.Fprintf(&b, "  tracing on:  %10.0f commits/s (median slice)\n", medOn)
			fmt.Fprintf(&b, "  overhead:    %10.2f%%  (budget %.1f%%)\n\n", overhead, obsMaxOverheadPct)
			if len(rep.StageP99Ns) > 0 {
				b.WriteString("traced commit stage p99 (ns):\n")
				for _, stage := range []string{"admission_wait", "coalesce_wait", "wal_durable", "decide", "flush", "total"} {
					if v, ok := rep.StageP99Ns[stage]; ok {
						fmt.Fprintf(&b, "  %-16s %12d\n", stage, v)
					}
				}
			}
			for tenant, n := range rep.TenantAdmitted {
				fmt.Fprintf(&b, "ingress tenant=%s admitted=%d\n", tenant, n)
			}

			if overhead > obsMaxOverheadPct {
				return "", fmt.Errorf("obs: tracing overhead %.2f%% exceeds the %.1f%% budget (off=%.0f on=%.0f commits/s)",
					overhead, obsMaxOverheadPct, medOff, medOn)
			}

			if err := writeJSONArtifact(&b, rep); err != nil {
				return "", err
			}
			return b.String(), nil
		},
	})
}
