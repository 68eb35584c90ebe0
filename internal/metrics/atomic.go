package metrics

import (
	"sync/atomic"
	"unsafe"
)

// atomicShards is the number of independently-updated count arrays inside an
// AtomicHistogram. Recording goroutines are spread across shards to keep
// cache lines from ping-ponging under concurrent writers; must be a power of
// two.
const atomicShards = 4

// atomicShard is one shard's worth of counts. min/max use -1 as the "no
// sample yet" sentinel, which is unambiguous because Record clamps samples to
// be non-negative.
type atomicShard struct {
	counts [maxMagnitude * subBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// AtomicHistogram is a lock-free histogram with the same bucket layout as
// Histogram, safe for concurrent Record from any number of goroutines. It is
// built for always-on hot-path instrumentation: Record is a handful of
// uncontended atomic adds, allocates nothing, and never takes a lock (a
// mutex around a Histogram would re-serialize a path the rest of the stack
// works hard to keep parallel). The zero value is ready to use; shards are
// allocated lazily on first use so idle histograms cost one pointer array.
//
// Snapshot and Merge are read-side operations that tolerate concurrent
// writers: they observe each counter atomically but not the histogram as a
// whole, so a snapshot taken mid-Record may see the bucket increment without
// the sum (or vice versa). For monitoring that skew is harmless and bounded
// by the number of in-flight Record calls.
type AtomicHistogram struct {
	shards [atomicShards]atomic.Pointer[atomicShard]
}

// shardHint spreads concurrent recorders across shards using the goroutine's
// stack address: distinct goroutines run on distinct stacks, so dropping the
// low bits yields a cheap, allocation-free per-goroutine affinity.
//
//go:nosplit
func shardHint() uintptr {
	var b byte
	return uintptr(unsafe.Pointer(&b)) >> 10
}

// shard returns shard i's counts, allocating them on first use.
func (h *AtomicHistogram) shard(i uintptr) *atomicShard {
	p := &h.shards[i&(atomicShards-1)]
	if s := p.Load(); s != nil {
		return s
	}
	s := &atomicShard{}
	s.min.Store(-1)
	s.max.Store(-1)
	if p.CompareAndSwap(nil, s) {
		return s
	}
	return p.Load()
}

// Record adds one sample. Safe for concurrent use; zero allocations.
func (h *AtomicHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	s := h.shard(shardHint())
	s.counts[bucketIndex(v)].Add(1)
	s.total.Add(1)
	s.sum.Add(v)
	for {
		m := s.min.Load()
		if m >= 0 && m <= v {
			break
		}
		if s.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := s.max.Load()
		if m >= v {
			break
		}
		if s.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *AtomicHistogram) Count() int64 {
	var n int64
	for i := range h.shards {
		if s := h.shards[i].Load(); s != nil {
			n += s.total.Load()
		}
	}
	return n
}

// Snapshot folds all shards into a plain Histogram, which interoperates with
// everything else in the package (Quantile, Merge, String).
func (h *AtomicHistogram) Snapshot() Histogram {
	var out Histogram
	for i := range h.shards {
		s := h.shards[i].Load()
		if s == nil {
			continue
		}
		t := s.total.Load()
		if t == 0 {
			continue
		}
		if mn := s.min.Load(); mn >= 0 && (out.total == 0 || mn < out.min) {
			out.min = mn
		}
		if mx := s.max.Load(); mx > out.max {
			out.max = mx
		}
		for j := range s.counts {
			out.counts[j] += s.counts[j].Load()
		}
		out.total += t
		out.sum += s.sum.Load()
	}
	return out
}

// AddHistogram folds a plain Histogram's samples into h (atomically per
// counter; see Snapshot for the consistency model).
func (h *AtomicHistogram) AddHistogram(src *Histogram) {
	if src.total == 0 {
		return
	}
	s := h.shard(0)
	for i := range src.counts {
		if c := src.counts[i]; c != 0 {
			s.counts[i].Add(c)
		}
	}
	s.total.Add(src.total)
	s.sum.Add(src.sum)
	for {
		m := s.min.Load()
		if m >= 0 && m <= src.min {
			break
		}
		if s.min.CompareAndSwap(m, src.min) {
			break
		}
	}
	for {
		m := s.max.Load()
		if m >= src.max {
			break
		}
		if s.max.CompareAndSwap(m, src.max) {
			break
		}
	}
}

// Merge folds other's samples into h. Both histograms may be concurrently
// recorded into while merging.
func (h *AtomicHistogram) Merge(other *AtomicHistogram) {
	snap := other.Snapshot()
	h.AddHistogram(&snap)
}

// Reset discards all samples by dropping the shards (concurrent recorders
// may repopulate them immediately).
func (h *AtomicHistogram) Reset() {
	for i := range h.shards {
		h.shards[i].Store(nil)
	}
}
