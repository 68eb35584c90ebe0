package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// splitName separates a sample name into its metric family and the label
// body (the text inside the braces, empty if unlabeled):
// `a_total{tenant="0"}` → (`a_total`, `tenant="0"`).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// withLabel renders family plus the existing label body and one extra label.
func withLabel(family, labels, extra string) string {
	if labels == "" {
		return family + "{" + extra + "}"
	}
	return family + "{" + labels + "," + extra + "}"
}

// Sum totals the counter and gauge series of one family — the unlabeled
// sample and every labeled `family{...}` one — so a reader can add up a
// per-tenant breakdown without knowing its label sets. Absent families sum
// to 0.
func Sum(samples []Sample, family string) float64 {
	var total float64
	for _, s := range samples {
		if f, _ := splitName(s.Name); f != family {
			continue
		}
		switch s.Kind {
		case KindCounter:
			total += float64(s.Value)
		case KindGauge:
			total += s.Gauge
		}
	}
	return total
}

// WritePrometheus renders samples (as returned by Registry.Gather or
// DecodeSamples, i.e. family-major sorted) in the Prometheus text
// exposition format — one TYPE header per contiguous family. Histograms
// render as summaries with quantile labels.
func WritePrometheus(w io.Writer, samples []Sample) {
	lastFamily := ""
	for _, s := range samples {
		family, labels := splitName(s.Name)
		if family != lastFamily {
			switch s.Kind {
			case KindCounter:
				fmt.Fprintf(w, "# TYPE %s counter\n", family)
			case KindGauge:
				fmt.Fprintf(w, "# TYPE %s gauge\n", family)
			case KindHistogram:
				fmt.Fprintf(w, "# TYPE %s summary\n", family)
			}
			lastFamily = family
		}
		switch s.Kind {
		case KindCounter:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value)
		case KindGauge:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Gauge)
		case KindHistogram:
			fmt.Fprintf(w, "%s %d\n", withLabel(family, labels, `quantile="0.5"`), s.Hist.P50)
			fmt.Fprintf(w, "%s %d\n", withLabel(family, labels, `quantile="0.9"`), s.Hist.P90)
			fmt.Fprintf(w, "%s %d\n", withLabel(family, labels, `quantile="0.99"`), s.Hist.P99)
			fmt.Fprintf(w, "%s %d\n", withLabel(family, labels, `quantile="0.999"`), s.Hist.P999)
			if labels == "" {
				fmt.Fprintf(w, "%s_sum %d\n", family, s.Hist.Sum)
				fmt.Fprintf(w, "%s_count %d\n", family, s.Hist.Count)
			} else {
				fmt.Fprintf(w, "%s_sum{%s} %d\n", family, labels, s.Hist.Sum)
				fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, s.Hist.Count)
			}
		}
	}
}

// WriteJSON renders samples as a flat JSON object keyed by full sample name
// (labels included); histograms become nested objects. Intended for the
// /vars debug endpoint.
func WriteJSON(w io.Writer, samples []Sample) {
	io.WriteString(w, "{")
	first := true
	for _, s := range samples {
		if s.Kind != KindCounter && s.Kind != KindGauge && s.Kind != KindHistogram {
			continue
		}
		if !first {
			io.WriteString(w, ",")
		}
		first = false
		io.WriteString(w, "\n  ")
		io.WriteString(w, strconv.Quote(s.Name))
		io.WriteString(w, ": ")
		switch s.Kind {
		case KindCounter:
			fmt.Fprintf(w, "%d", s.Value)
		case KindGauge:
			fmt.Fprintf(w, "%g", s.Gauge)
		case KindHistogram:
			fmt.Fprintf(w, `{"count": %d, "sum": %d, "min": %d, "max": %d, "p50": %d, "p90": %d, "p99": %d, "p999": %d}`,
				s.Hist.Count, s.Hist.Sum, s.Hist.Min, s.Hist.Max,
				s.Hist.P50, s.Hist.P90, s.Hist.P99, s.Hist.P999)
		}
	}
	io.WriteString(w, "\n}\n")
}
