package metrics

import (
	"encoding/binary"
	"errors"
	"math"
)

// Wire encoding for a gathered sample set. The format is self-describing so
// the metric set can grow (or shrink, or reorder) without ever breaking wire
// compatibility, so no change ever has to widen a positional payload in
// lockstep on both ends:
//
//	u32  sample count
//	per sample:
//	  u16  name length, then the name bytes (UTF-8, labels included)
//	  u8   kind (KindCounter | KindGauge | KindHistogram | future)
//	  u16  value length, then the value bytes
//
// Decoders skip value bytes they don't understand: an unknown kind (or a
// known kind with a longer-than-expected value, i.e. a future field) is
// carried as an opaque sample rather than an error. All integers are
// big-endian, matching the netsrv frame protocol.
const (
	wireCounterLen = 8
	wireGaugeLen   = 8
	// wireHistLen is the current histogram summary width; decoders accept
	// anything >= this and ignore the tail.
	wireHistLen = 8 * 8
)

// ErrTruncatedSamples reports a sample payload that ends mid-record.
var ErrTruncatedSamples = errors.New("metrics: truncated sample payload")

// AppendSamples appends the wire encoding of samples to b.
func AppendSamples(b []byte, samples []Sample) []byte {
	var u32 [4]byte
	var u16 [2]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(samples)))
	b = append(b, u32[:]...)
	for _, s := range samples {
		binary.BigEndian.PutUint16(u16[:], uint16(len(s.Name)))
		b = append(b, u16[:]...)
		b = append(b, s.Name...)
		b = append(b, byte(s.Kind))
		switch s.Kind {
		case KindCounter:
			binary.BigEndian.PutUint16(u16[:], wireCounterLen)
			b = append(b, u16[:]...)
			binary.BigEndian.PutUint64(u64[:], uint64(s.Value))
			b = append(b, u64[:]...)
		case KindGauge:
			binary.BigEndian.PutUint16(u16[:], wireGaugeLen)
			b = append(b, u16[:]...)
			binary.BigEndian.PutUint64(u64[:], math.Float64bits(s.Gauge))
			b = append(b, u64[:]...)
		case KindHistogram:
			binary.BigEndian.PutUint16(u16[:], wireHistLen)
			b = append(b, u16[:]...)
			for _, v := range [...]int64{
				s.Hist.Count, s.Hist.Sum, s.Hist.Min, s.Hist.Max,
				s.Hist.P50, s.Hist.P90, s.Hist.P99, s.Hist.P999,
			} {
				binary.BigEndian.PutUint64(u64[:], uint64(v))
				b = append(b, u64[:]...)
			}
		default:
			// Unknown kinds encode as zero-length values; the name still
			// travels.
			binary.BigEndian.PutUint16(u16[:], 0)
			b = append(b, u16[:]...)
		}
	}
	return b
}

// DecodeSamples parses a wire-encoded sample set. Samples of unknown kind
// are returned with their Name and Kind but no value, never an error — a
// client built before a kind existed still sees everything it understands.
func DecodeSamples(b []byte) ([]Sample, error) {
	if len(b) < 4 {
		return nil, ErrTruncatedSamples
	}
	n := int(binary.BigEndian.Uint32(b[:4]))
	b = b[4:]
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, ErrTruncatedSamples
		}
		nameLen := int(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
		if len(b) < nameLen+3 {
			return nil, ErrTruncatedSamples
		}
		s := Sample{Name: string(b[:nameLen])}
		b = b[nameLen:]
		s.Kind = Kind(b[0])
		valLen := int(binary.BigEndian.Uint16(b[1:3]))
		b = b[3:]
		if len(b) < valLen {
			return nil, ErrTruncatedSamples
		}
		val := b[:valLen]
		b = b[valLen:]
		switch {
		case s.Kind == KindCounter && valLen >= wireCounterLen:
			s.Value = int64(binary.BigEndian.Uint64(val[:8]))
		case s.Kind == KindGauge && valLen >= wireGaugeLen:
			s.Gauge = math.Float64frombits(binary.BigEndian.Uint64(val[:8]))
		case s.Kind == KindHistogram && valLen >= wireHistLen:
			for j, dst := range [...]*int64{
				&s.Hist.Count, &s.Hist.Sum, &s.Hist.Min, &s.Hist.Max,
				&s.Hist.P50, &s.Hist.P90, &s.Hist.P99, &s.Hist.P999,
			} {
				*dst = int64(binary.BigEndian.Uint64(val[j*8 : j*8+8]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}
