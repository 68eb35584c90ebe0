package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/workload"
)

const (
	anomalyRows     = int64(1) << 30
	anomalyConns    = 4
	anomalySessions = 64
	// The gate: full sampling of the streaming anomaly checker must cost
	// at most this fraction of peak commit throughput on the lean path.
	anomalyMaxOverheadPct = 5.0
)

// anomalyScenario is one engine × workload-mix census row.
type anomalyScenario struct {
	Mix           string `json:"mix"`
	Engine        string `json:"engine"`
	Txns          int    `json:"txns"`
	Committed     int64  `json:"committed"`
	Sampled       int64  `json:"txns_sampled"`
	WriteSkew     int64  `json:"write_skew"`
	LostUpdate    int64  `json:"lost_update"`
	DirtyRead     int64  `json:"dirty_read"`
	FuzzyRead     int64  `json:"fuzzy_read"`
	SnapViolation int64  `json:"snapshot_violation"`
	Watchdog      int64  `json:"watchdog_trips"`
}

// anomalyReport is the BENCH_anomaly.json schema.
type anomalyReport struct {
	Experiment     string            `json:"experiment"`
	Quick          bool              `json:"quick"`
	Slices         int               `json:"slices_per_mode"`
	SliceMs        float64           `json:"slice_ms"`
	TPSSampleOff   float64           `json:"tps_sampling_off"` // median slice rate
	TPSSampleOn    float64           `json:"tps_sampling_on"`  // median slice rate
	OverheadPct    float64           `json:"overhead_pct"`
	SISkewPairs    int               `json:"si_skew_pairs_injected"`
	SIWriteSkew    int64             `json:"si_write_skew_detected"`
	SITxnsSampled  int64             `json:"si_txns_sampled"`
	WSIWriteSkew   int64             `json:"wsi_write_skew_detected"`
	WSITxnsSampled int64             `json:"wsi_txns_sampled"`
	Census         []anomalyScenario `json:"census"`
}

// anomalyInterleaved is the obs experiment's interleaved-slice A/B applied
// to the anomaly tap: one continuous closed-loop commit load, the sampled
// fraction flipped between 0 and 1 every slice, so both modes share the
// same process, heap, connections and background noise and the slice-rate
// medians compare the tap alone.
func anomalyInterleaved(slices int, slice time.Duration) (ratesOn, ratesOff []float64, err error) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		return nil, nil, err
	}
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	srv.CoalesceMaxBatch = 64
	srv.Ingress = &netsrv.IngressConfig{Tenants: 1}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	m, err := netsrv.DialMux(addr, anomalyConns)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()

	var (
		stop      atomic.Bool
		committed atomic.Int64
		wg        sync.WaitGroup
	)
	for g := 0; g < anomalySessions; g++ {
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
					WriteSet: []oracle.RowID{oracle.RowID(rng.Int63n(anomalyRows))},
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
	time.Sleep(500 * time.Millisecond)

	for k := 0; k < 2*slices; k++ {
		sampling := k%2 == 0
		if sampling {
			srv.SetAnomalySampling(1)
		} else {
			srv.SetAnomalySampling(0)
		}
		before := committed.Load()
		start := time.Now()
		time.Sleep(slice)
		rate := float64(committed.Load()-before) / time.Since(start).Seconds()
		if sampling {
			ratesOn = append(ratesOn, rate)
		} else {
			ratesOff = append(ratesOff, rate)
		}
	}
	stop.Store(true)
	wg.Wait()
	if len(ratesOn) == 0 || len(ratesOff) == 0 {
		return nil, nil, errors.New("anomaly: no slices measured")
	}
	return ratesOn, ratesOff, nil
}

// anomalyCensus injects the classic write-skew interleaving — pairs of
// transactions that each read both rows and write one — through a fully
// sampled server and reports what the streaming checker saw. Under the
// permissive SI engine both halves commit and every pair is a genuine
// skew; under WSI the read-set check kills one half and the checker must
// stay silent.
func anomalyCensus(engine oracle.Engine, pairs int) (counts history.StreamCounts, metricSkew int64, err error) {
	so, err := oracle.New(oracle.Config{Engine: engine, TSO: tso.New(0, nil)})
	if err != nil {
		return counts, 0, err
	}
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	srv.AnomalySample = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return counts, 0, err
	}
	defer srv.Close()
	c, err := netsrv.Dial(addr)
	if err != nil {
		return counts, 0, err
	}
	defer c.Close()

	for i := 0; i < pairs; i++ {
		rowA, rowB := oracle.RowID(2*i), oracle.RowID(2*i+1)
		tsA, err := c.Begin()
		if err != nil {
			return counts, 0, err
		}
		tsB, err := c.Begin()
		if err != nil {
			return counts, 0, err
		}
		if _, err := c.Commit(oracle.CommitRequest{
			StartTS: tsA, WriteSet: []oracle.RowID{rowA}, ReadSet: []oracle.RowID{rowA, rowB},
		}); err != nil {
			return counts, 0, err
		}
		if _, err := c.Commit(oracle.CommitRequest{
			StartTS: tsB, WriteSet: []oracle.RowID{rowB}, ReadSet: []oracle.RowID{rowA, rowB},
		}); err != nil {
			return counts, 0, err
		}
	}
	counts = srv.AnomalyCounts()
	samples, err := c.Metrics()
	if err != nil {
		return counts, 0, err
	}
	for _, s := range samples {
		if s.Name == "history_write_skew_total" {
			metricSkew = s.Value
		}
	}
	return counts, metricSkew, nil
}

// anomalyTxnSource adapts the workload mixes to a common generator shape.
type anomalyTxnSource interface {
	Next(r *rand.Rand) workload.Txn
}

// anomalyMixCensus drives txns generated transactions from the mix over a
// deliberately small, hot row space through a fully sampled server,
// keeping a window of transactions in flight so snapshots genuinely
// overlap, and reports the streaming checker's verdicts. The paper's
// claim in live form: the SI rows may show write skew, the WSI rows must
// show nothing at all.
func anomalyMixCensus(engine oracle.Engine, mix anomalyTxnSource, txns, window int) (anomalyScenario, error) {
	sc := anomalyScenario{Engine: engine.String(), Txns: txns}
	so, err := oracle.New(oracle.Config{Engine: engine, TSO: tso.New(0, nil)})
	if err != nil {
		return sc, err
	}
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	srv.AnomalySample = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return sc, err
	}
	defer srv.Close()
	c, err := netsrv.Dial(addr)
	if err != nil {
		return sc, err
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(42))
	pending := make([]oracle.CommitRequest, 0, window)
	flush := func(req oracle.CommitRequest) error {
		res, err := c.Commit(req)
		if err != nil {
			return err
		}
		if res.Committed {
			sc.Committed++
		}
		return nil
	}
	for i := 0; i < txns; i++ {
		t := mix.Next(rng)
		ts, err := c.Begin()
		if err != nil {
			return sc, err
		}
		req := oracle.CommitRequest{StartTS: ts}
		for _, row := range t.WriteRows() {
			req.WriteSet = append(req.WriteSet, oracle.RowID(row))
		}
		for _, row := range t.ReadRows() {
			req.ReadSet = append(req.ReadSet, oracle.RowID(row))
		}
		pending = append(pending, req)
		if len(pending) == window {
			if err := flush(pending[0]); err != nil {
				return sc, err
			}
			pending = pending[1:]
		}
	}
	for _, req := range pending {
		if err := flush(req); err != nil {
			return sc, err
		}
	}
	counts := srv.AnomalyCounts()
	sc.Sampled = counts.Txns
	sc.WriteSkew = counts.WriteSkew
	sc.LostUpdate = counts.LostUpdate
	sc.DirtyRead = counts.DirtyRead
	sc.FuzzyRead = counts.FuzzyRead
	sc.SnapViolation = counts.SnapViolation
	sc.Watchdog = counts.NonMonotone + counts.DoubleDecide
	return sc, nil
}

func init() {
	register(Experiment{
		Name:  "anomaly",
		Title: "Anomaly lab: streaming checker overhead and online write-skew census",
		Run: func(quick bool) (string, error) {
			slices, slice := 40, 400*time.Millisecond
			pairs := 200
			if quick {
				slices, slice = 20, 250*time.Millisecond
				pairs = 50
			}
			ratesOn, ratesOff, err := anomalyInterleaved(slices, slice)
			if err != nil {
				return "", err
			}
			medOn, medOff := obsMedian(ratesOn), obsMedian(ratesOff)
			overhead := 0.0
			if medOff > 0 && medOff > medOn {
				overhead = (medOff - medOn) / medOff * 100
			}

			siCounts, siMetric, err := anomalyCensus(oracle.SI, pairs)
			if err != nil {
				return "", fmt.Errorf("anomaly: SI census: %w", err)
			}
			wsiCounts, _, err := anomalyCensus(oracle.WSI, pairs)
			if err != nil {
				return "", fmt.Errorf("anomaly: WSI census: %w", err)
			}

			// The per-mix census: §6.1 workloads over a hot row space,
			// both engines, everything sampled.
			censusTxns, window := 2000, 16
			if quick {
				censusTxns = 500
			}
			const censusRows = 256
			newMixes := func() []struct {
				name string
				src  anomalyTxnSource
			} {
				return []struct {
					name string
					src  anomalyTxnSource
				}{
					{"txnmix", workload.NewMix(workload.MixedWorkload(), workload.NewUniform(censusRows))},
					{"crossmix", workload.NewCrossMix(workload.ComplexWorkload(), 4, 0.3, censusRows)},
					{"readheavy", workload.NewMix(workload.ReadHeavyWorkload(), workload.NewUniform(censusRows))},
				}
			}
			var census []anomalyScenario
			for _, engine := range []oracle.Engine{oracle.SI, oracle.WSI} {
				for _, m := range newMixes() {
					sc, err := anomalyMixCensus(engine, m.src, censusTxns, window)
					if err != nil {
						return "", fmt.Errorf("anomaly: %s/%s census: %w", m.name, engine, err)
					}
					sc.Mix = m.name
					census = append(census, sc)
				}
			}

			rep := anomalyReport{
				Experiment: "anomaly", Quick: quick,
				Slices: slices, SliceMs: float64(slice) / float64(time.Millisecond),
				TPSSampleOff: medOff, TPSSampleOn: medOn, OverheadPct: overhead,
				SISkewPairs: pairs,
				SIWriteSkew: siCounts.WriteSkew, SITxnsSampled: siCounts.Txns,
				WSIWriteSkew: wsiCounts.WriteSkew, WSITxnsSampled: wsiCounts.Txns,
				Census: census,
			}

			var b strings.Builder
			b.WriteString(header("Anomaly lab — sampled tap overhead and online detection census"))
			fmt.Fprintf(&b, "\nclosed-loop single commits, %d sessions over %d connections, in-memory\n", anomalySessions, anomalyConns)
			fmt.Fprintf(&b, "oracle; one continuous load, anomaly sampling flipped every %v for\n", slice)
			fmt.Fprintf(&b, "%d slices per mode, comparing the median slice rates:\n\n", slices)
			fmt.Fprintf(&b, "  sampling off: %10.0f commits/s (median slice)\n", medOff)
			fmt.Fprintf(&b, "  sampling on:  %10.0f commits/s (median slice)\n", medOn)
			fmt.Fprintf(&b, "  overhead:     %10.2f%%  (budget %.1f%%)\n\n", overhead, anomalyMaxOverheadPct)
			fmt.Fprintf(&b, "write-skew census, %d crossing pairs per engine:\n", pairs)
			fmt.Fprintf(&b, "  SI  (permissive): %4d write skews detected online (%d txns sampled)\n", siCounts.WriteSkew, siCounts.Txns)
			fmt.Fprintf(&b, "  WSI (read check): %4d write skews detected online (%d txns sampled)\n\n", wsiCounts.WriteSkew, wsiCounts.Txns)
			fmt.Fprintf(&b, "per-mix census, %d txns each over %d hot rows, %d in flight:\n\n", censusTxns, censusRows, window)
			fmt.Fprintf(&b, "  %-10s %-4s %9s %9s %6s %6s %6s %6s %6s %5s\n",
				"mix", "eng", "committed", "sampled", "skew", "lostup", "dirty", "fuzzy", "snap", "wdog")
			for _, sc := range census {
				fmt.Fprintf(&b, "  %-10s %-4s %9d %9d %6d %6d %6d %6d %6d %5d\n",
					sc.Mix, sc.Engine, sc.Committed, sc.Sampled,
					sc.WriteSkew, sc.LostUpdate, sc.DirtyRead, sc.FuzzyRead, sc.SnapViolation, sc.Watchdog)
			}

			if overhead > anomalyMaxOverheadPct {
				return "", fmt.Errorf("anomaly: sampling overhead %.2f%% exceeds the %.1f%% budget (off=%.0f on=%.0f commits/s)",
					overhead, anomalyMaxOverheadPct, medOff, medOn)
			}
			if siCounts.WriteSkew == 0 || siMetric == 0 {
				return "", fmt.Errorf("anomaly: SI census missed the injected write skew (counts=%d history_write_skew_total=%d)",
					siCounts.WriteSkew, siMetric)
			}
			if wsiCounts.WriteSkew != 0 {
				return "", fmt.Errorf("anomaly: WSI census fabricated %d write skews", wsiCounts.WriteSkew)
			}
			for _, sc := range census {
				if sc.Engine != "WSI" {
					continue
				}
				if sc.WriteSkew+sc.LostUpdate+sc.DirtyRead+sc.FuzzyRead+sc.SnapViolation+sc.Watchdog != 0 {
					return "", fmt.Errorf("anomaly: serializable WSI run flagged anomalies under %s: %+v", sc.Mix, sc)
				}
			}

			if err := writeJSONArtifact(&b, rep); err != nil {
				return "", err
			}
			return b.String(), nil
		},
	})
}
