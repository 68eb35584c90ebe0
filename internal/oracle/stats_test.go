package oracle

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestStatsSamplesRoundTrip sets every exported Stats field to a distinct
// non-zero value by reflection, emits it through the statsFields table and
// the registry's wire encoding, and parses it back with StatsFromSamples.
// A field added to Stats without a metric name comes back zero and fails
// here, so the table cannot fall out of step with the struct.
func TestStatsSamplesRoundTrip(t *testing.T) {
	var want Stats
	v := reflect.ValueOf(&want).Elem()
	next := int64(1)
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch {
		case f.Kind() == reflect.Int64:
			f.SetInt(next)
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(next) + 0.25)
		case sf.Type == reflect.TypeOf([]int64(nil)):
			loads := make([]int64, LoadBuckets)
			for j := range loads {
				loads[j] = next*1000 + int64(j)
			}
			f.Set(reflect.ValueOf(loads))
		default:
			t.Fatalf("Stats.%s has type %s, which the metrics table cannot carry", sf.Name, sf.Type)
		}
		next++
	}

	var samples []metrics.Sample
	emitStats(want, func(s metrics.Sample) { samples = append(samples, s) })
	if want := len(statsFields) + LoadBuckets; len(samples) != want {
		t.Fatalf("emitted %d samples, want %d", len(samples), want)
	}
	wire, err := metrics.DecodeSamples(metrics.AppendSamples(nil, samples))
	if err != nil {
		t.Fatal(err)
	}
	// Another subsystem's samples ride in the same gathered set.
	wire = append(wire, metrics.C("netsrv_sessions", 7), metrics.G("wal_batch_size_avg", 3))
	got, err := StatsFromSamples(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, want)
	}
}

// TestStatsFromSamplesRejects covers the sample sets that must not parse
// into a plausible Stats.
func TestStatsFromSamplesRejects(t *testing.T) {
	for name, samples := range map[string][]metrics.Sample{
		"no oracle samples": {metrics.C("netsrv_sessions", 1)},
		"empty":             nil,
		"counter as gauge":  {metrics.G("oracle_commits_total", 1)},
		"gauge as counter":  {metrics.C("oracle_commit_batch_size_avg", 1)},
		"slice out of range": {
			metrics.C(`oracle_slice_writes_total{slice="64"}`, 1),
		},
		"slice not a number": {
			metrics.C(`oracle_slice_writes_total{slice="x"}`, 1),
		},
	} {
		if st, err := StatsFromSamples(samples); err == nil {
			t.Errorf("%s: parsed as %+v, want an error", name, st)
		}
	}
}
