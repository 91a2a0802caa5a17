package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format v0.0.4: one HELP and one TYPE line per family
// followed by its samples, families sorted by name, label values
// escaped per the format (backslash, double quote, newline). It may
// run concurrently with metric updates; histogram families are
// rendered so that the +Inf bucket and _count agree even mid-update.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, e := range f.entries {
			switch m := e.metric.(type) {
			case *Counter:
				writeSample(bw, f.name, e.labels, "", strconv.FormatInt(m.Value(), 10))
			case *Gauge:
				writeSample(bw, f.name, e.labels, "", strconv.FormatInt(m.Value(), 10))
			case *funcMetric:
				writeSample(bw, f.name, e.labels, "", formatSeconds(m.fn()))
			case *Histogram:
				writeHistogram(bw, f.name, e.labels, m)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram member: cumulative _bucket
// samples with le labels in seconds, then _sum and _count. Bucket
// counters are read once so the cumulative +Inf bucket and _count are
// computed from the same reads and always agree.
func writeHistogram(bw *bufio.Writer, name string, labels []Label, h *Histogram) {
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatSeconds(h.bounds[i].Seconds())
		}
		writeSample(bw, name+"_bucket", labels, le, strconv.FormatInt(cum, 10))
	}
	writeSample(bw, name+"_sum", labels, "", formatSeconds(h.Sum().Seconds()))
	writeSample(bw, name+"_count", labels, "", strconv.FormatInt(cum, 10))
}

// writeSample renders one sample line; le, when non-empty, is appended
// as the trailing le label of a histogram bucket.
func writeSample(bw *bufio.Writer, name string, labels []Label, le, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || le != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// formatSeconds renders a float with the shortest representation that
// round-trips, the conventional form for le bounds and sums.
func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline, per the format's HELP rule.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote, and newline, per the
// format's label-value rule.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving the exposition, the /metrics
// endpoint of the admin mux.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client disconnects are not server errors
	})
}
