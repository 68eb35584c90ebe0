package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestQuantileMidpointInterpolation is the regression test for the old
// Quantile, which returned the winning bucket's lower bound and so
// systematically under-reported by up to one bucket width. The midpoint
// bounds the error at half a bucket width on a known distribution.
func TestQuantileMidpointInterpolation(t *testing.T) {
	var h Histogram
	const n = 100001
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		v := int64(i) * 37
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		rank := int(math.Ceil(q * float64(n)))
		exact := vals[rank-1]
		got := h.Quantile(q)
		idx := bucketIndex(exact)
		halfWidth := (bucketLow(idx+1) - bucketLow(idx)) / 2
		if diff := got - exact; diff > halfWidth+1 || diff < -halfWidth-1 {
			t.Errorf("Quantile(%.2f) = %d, exact %d: |error| %d exceeds half bucket width %d",
				q, got, exact, diff, halfWidth)
		}
	}
}

// TestQuantileExactInLinearRange: buckets below subBuckets hold exactly one
// value, so quantiles there must be exact, not just bounded.
func TestQuantileExactInLinearRange(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 100; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 1.0} {
		want := int64(math.Ceil(q*100)) - 1
		if want < 0 {
			want = 0
		}
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%.2f) = %d, want exactly %d", q, got, want)
		}
	}
}

// TestBucketBoundaries pins the bucket mapping at the power-of-two edges:
// every value must fall inside [bucketLow(i), bucketLow(i+1)) of its own
// bucket, with the midpoint inside the same range.
func TestBucketBoundaries(t *testing.T) {
	boundaries := []int64{0, 1, 126, 127, 128, 129, 255, 256, 257,
		16383, 16384, 16385, 1<<20 - 1, 1 << 20, 1<<20 + 1}
	for _, v := range boundaries {
		i := bucketIndex(v)
		lo, hi := bucketLow(i), bucketLow(i+1)
		if v < lo || v >= hi {
			t.Errorf("value %d mapped to bucket %d spanning [%d, %d)", v, i, lo, hi)
		}
		if mid := bucketMid(i); mid < lo || mid >= hi {
			t.Errorf("bucketMid(%d) = %d outside [%d, %d)", i, mid, lo, hi)
		}
	}
}

// TestMergeEmpty covers the Merge edge cases: empty←empty, empty←full and
// full←empty must preserve min/max/count exactly.
func TestMergeEmpty(t *testing.T) {
	var empty1, empty2 Histogram
	empty1.Merge(&empty2)
	if empty1.Count() != 0 || empty1.Min() != 0 || empty1.Max() != 0 {
		t.Fatalf("empty.Merge(empty) = n=%d min=%d max=%d, want zeros",
			empty1.Count(), empty1.Min(), empty1.Max())
	}
	var full Histogram
	full.Record(5)
	full.Record(500)
	snap := full
	full.Merge(&empty1)
	if full != snap {
		t.Fatalf("full.Merge(empty) changed the histogram")
	}
	var dst Histogram
	dst.Merge(&full)
	if dst.Count() != 2 || dst.Min() != 5 || dst.Max() != 500 || dst.Sum() != 505 {
		t.Fatalf("empty.Merge(full) = n=%d min=%d max=%d sum=%d, want 2/5/500/505",
			dst.Count(), dst.Min(), dst.Max(), dst.Sum())
	}
}

// TestAtomicHistogramBasics checks the single-threaded contract against the
// plain Histogram: identical samples must produce identical snapshots.
func TestAtomicHistogramBasics(t *testing.T) {
	var ah AtomicHistogram
	var h Histogram
	for _, v := range []int64{0, 1, 127, 128, 5000, 1 << 30, -3} {
		ah.Record(v)
		h.Record(v)
	}
	snap := ah.Snapshot()
	if snap != h {
		t.Fatalf("AtomicHistogram snapshot diverges from Histogram:\n atomic %v\n plain  %v", snap.String(), h.String())
	}
	if ah.Count() != h.Count() {
		t.Fatalf("Count() = %d, want %d", ah.Count(), h.Count())
	}
	var other AtomicHistogram
	other.Record(9)
	ah.Merge(&other)
	if got := ah.Snapshot(); got.Count() != h.Count()+1 || got.Min() != 0 || got.Max() != 1<<30 {
		t.Fatalf("after Merge: n=%d min=%d max=%d", got.Count(), got.Min(), got.Max())
	}
}

// TestAtomicHistogramChaos hammers one AtomicHistogram with concurrent
// writers while snapshots and merges run — run under -race, it is the
// memory-model proof; after the dust settles the totals must be exact.
func TestAtomicHistogramChaos(t *testing.T) {
	const (
		writers = 8
		perG    = 20000
	)
	var ah AtomicHistogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: Snapshot and Merge-into-scratch must never trip
	// the race detector or crash, whatever they observe mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var scratch AtomicHistogram
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := ah.Snapshot()
			if snap.Count() < 0 {
				t.Error("negative snapshot count")
				return
			}
			scratch.Merge(&ah)
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ah.Record(int64(g*perG + i))
			}
		}(g)
	}
	// Writers finish first, then the reader is released.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Wait for writers by polling the count; then stop the reader.
	for ah.Count() < writers*perG {
		snap := ah.Snapshot()
		_ = snap
	}
	close(stop)
	<-done

	snap := ah.Snapshot()
	const n = writers * perG
	if snap.Count() != n {
		t.Fatalf("count = %d, want %d", snap.Count(), n)
	}
	if snap.Min() != 0 || snap.Max() != n-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", snap.Min(), snap.Max(), n-1)
	}
	if want := int64(n) * (n - 1) / 2; snap.Sum() != want {
		t.Fatalf("sum = %d, want %d", snap.Sum(), want)
	}
}

// TestRegistryGather checks source registration, emission and name-sorted
// output.
func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	r.Register(func(emit func(Sample)) {
		emit(C("z_total", 3))
		emit(G("a_gauge", 1.5))
	})
	var h Histogram
	h.Record(10)
	r.Register(func(emit func(Sample)) { emit(H("m_hist", &h)) })
	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(samples))
	}
	for i, want := range []string{"a_gauge", "m_hist", "z_total"} {
		if samples[i].Name != want {
			t.Fatalf("samples[%d] = %q, want %q (sorted)", i, samples[i].Name, want)
		}
	}
	if samples[1].Hist.Count != 1 || samples[1].Hist.Max != 10 {
		t.Fatalf("histogram summary = %+v", samples[1].Hist)
	}
}

// TestSumFamily totals one family across its label sets and leaves
// families that merely share a prefix out.
func TestSumFamily(t *testing.T) {
	samples := []Sample{
		C(`a_total{tenant="0"}`, 2),
		C(`a_total{tenant="1"}`, 3),
		C("a_total_more", 100),
		G("a_total", 0.5),
		G("b_gauge", 4),
	}
	if got := Sum(samples, "a_total"); got != 5.5 {
		t.Fatalf("Sum(a_total) = %v, want 5.5", got)
	}
	if got := Sum(samples, "missing"); got != 0 {
		t.Fatalf("Sum(missing) = %v, want 0", got)
	}
}

// TestSampleWireRoundTrip encodes every kind and decodes it back.
func TestSampleWireRoundTrip(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	in := []Sample{
		C("a_total", 42),
		G(`b_gauge{tenant="3"}`, -1.25),
		H("c_ns", &h),
	}
	out, err := DecodeSamples(AppendSamples(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("sample %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

// TestSampleWireForwardCompat is the "legacy-width client" guarantee:
// a payload carrying a sample kind (or a histogram wider than today's
// summary) that this decoder has never heard of must decode cleanly,
// skipping only the value bytes it cannot interpret — adding a metric, or a
// field, never breaks an old client.
func TestSampleWireForwardCompat(t *testing.T) {
	buf := AppendSamples(nil, []Sample{C("known_total", 7)})
	// Splice in a future sample by hand: kind 200, 16-byte opaque value.
	var futile bytes.Buffer
	name := "future_metric"
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(name)))
	futile.Write(u16[:])
	futile.WriteString(name)
	futile.WriteByte(200)
	binary.BigEndian.PutUint16(u16[:], 16)
	futile.Write(u16[:])
	futile.Write(make([]byte, 16))
	// And a histogram widened by a future field (wireHistLen + 8 bytes).
	name2 := "widened_ns"
	binary.BigEndian.PutUint16(u16[:], uint16(len(name2)))
	futile.Write(u16[:])
	futile.WriteString(name2)
	futile.WriteByte(byte(KindHistogram))
	binary.BigEndian.PutUint16(u16[:], wireHistLen+8)
	futile.Write(u16[:])
	var u64 [8]byte
	for i := 0; i < 9; i++ {
		binary.BigEndian.PutUint64(u64[:], uint64(i+1))
		futile.Write(u64[:])
	}
	payload := append([]byte{}, buf...)
	binary.BigEndian.PutUint32(payload[:4], 3) // 1 known + 2 future
	payload = append(payload, futile.Bytes()...)

	out, err := DecodeSamples(payload)
	if err != nil {
		t.Fatalf("legacy decode of future payload: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(out))
	}
	if out[0].Name != "known_total" || out[0].Value != 7 {
		t.Fatalf("known sample corrupted: %+v", out[0])
	}
	if out[1].Name != "future_metric" || out[1].Kind != Kind(200) {
		t.Fatalf("future sample: %+v", out[1])
	}
	if out[2].Hist.Count != 1 || out[2].Hist.P999 != 8 {
		t.Fatalf("widened histogram lost its known prefix: %+v", out[2].Hist)
	}

	// Truncation is still an error, not a silent partial decode.
	if _, err := DecodeSamples(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// TestWritePrometheus spot-checks the text exposition: TYPE lines, labeled
// counters, and histogram quantile series.
func TestWritePrometheus(t *testing.T) {
	var h Histogram
	h.Record(100)
	samples := []Sample{
		C(`ingress_admitted_total{tenant="0"}`, 5),
		C(`ingress_admitted_total{tenant="1"}`, 6),
		H("stage_total_ns", &h),
		G("sessions", 2),
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	var b strings.Builder
	WritePrometheus(&b, samples)
	out := b.String()
	for _, want := range []string{
		"# TYPE ingress_admitted_total counter",
		`ingress_admitted_total{tenant="0"} 5`,
		`ingress_admitted_total{tenant="1"} 6`,
		"# TYPE stage_total_ns summary",
		`stage_total_ns{quantile="0.99"} 100`,
		"stage_total_ns_count 1",
		"# TYPE sessions gauge",
		"sessions 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ingress_admitted_total") != 1 {
		t.Errorf("TYPE line repeated per labeled series:\n%s", out)
	}
}

// TestWriteJSON checks /vars output is valid-looking flat JSON with escaped
// label names.
func TestWriteJSON(t *testing.T) {
	var h Histogram
	h.Record(7)
	var b strings.Builder
	WriteJSON(&b, []Sample{
		C(`a_total{tenant="0"}`, 1),
		H("h_ns", &h),
	})
	out := b.String()
	if !strings.Contains(out, `"a_total{tenant=\"0\"}": 1`) {
		t.Errorf("JSON missing escaped labeled counter:\n%s", out)
	}
	if !strings.Contains(out, `"count": 1`) || !strings.Contains(out, `"p99": 7`) {
		t.Errorf("JSON missing histogram fields:\n%s", out)
	}
}

// BenchmarkAtomicHistogramRecord is the zero-alloc budget bench for the
// hot-path histogram (scripts/alloc_budget.txt pins it at 0 allocs/op).
func BenchmarkAtomicHistogramRecord(b *testing.B) {
	var h AtomicHistogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Record(v)
			v = (v * 2862933555777941757) & ((1 << 30) - 1)
		}
	})
}

// BenchmarkTraceStamp is the zero-alloc budget bench for a full span
// lifecycle: reset + every stage stamp a request pays when traced.
func BenchmarkTraceStamp(b *testing.B) {
	var sp Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Begin()
		sp.Stamp(StageAdmit)
		sp.Stamp(StageCut)
		sp.Stamp(StageWAL)
		sp.Stamp(StageApply)
		sp.Stamp(StageFlush)
	}
}
