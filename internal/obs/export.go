package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"composable/internal/sim"
)

// appendMicros renders a sim time as Chrome trace microseconds with
// exact integer math: whole µs, then the sub-µs remainder as three
// decimal digits. No floats, so the bytes cannot drift between runs.
func appendMicros(b []byte, d sim.Time) []byte {
	ns := int64(d)
	b = strconv.AppendInt(b, ns/1000, 10)
	if f := ns % 1000; f != 0 {
		b = append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
	}
	return b
}

// appendAttrs renders a span's attributes as a JSON object body (no
// braces), in the order they were set.
func appendAttrs(b []byte, attrs []attrVal) []byte {
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a.key)
		b = append(b, ':')
		if a.isStr {
			b = strconv.AppendQuote(b, a.s)
		} else {
			b = strconv.AppendInt(b, a.i, 10)
		}
	}
	return b
}

// appendSpanEvent renders one span or instant as a trace_event line.
// Still-open spans (a permanent fault, a proc alive at exit) are closed
// at the collector's max observed time so they render with their true
// extent instead of vanishing.
func (c *Collector) appendSpanEvent(b []byte, s *span) []byte {
	if s.instant {
		b = append(b, `{"ph":"i","pid":1,"tid":`...)
	} else {
		b = append(b, `{"ph":"X","pid":1,"tid":`...)
	}
	b = strconv.AppendInt(b, int64(s.cat), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, s.start)
	if !s.instant {
		end := s.end
		if s.open {
			end = c.MaxTime()
		}
		b = append(b, `,"dur":`...)
		b = appendMicros(b, end-s.start)
	} else {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, s.name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, catNames[s.cat])
	b = append(b, `,"args":{`...)
	b = appendAttrs(b, s.attrs)
	b = append(b, "}}"...)
	return b
}

// writeTrace renders the Chrome trace_event JSON. keep selects which
// spans to include (nil = all); metric counter tracks are emitted only
// for the unfiltered trace, since samples are fleet-global.
func (c *Collector) writeTrace(w io.Writer, keep func(*span) bool) error {
	b := make([]byte, 0, 1<<14)
	b = append(b, "{\"traceEvents\":[\n"...)
	// Track metadata first: one named thread per category, tid = Cat.
	// The five legacy tracks are always present — the PR 9 golden trace
	// pins those bytes — while newer tracks (mcs, analyze) are emitted
	// only when a kept span actually lands on them, so traces from runs
	// that never touch the new layers stay byte-identical.
	var used [numCats]bool
	for i := range c.spans {
		s := &c.spans[i]
		if keep == nil || keep(s) {
			used[s.cat] = true
		}
	}
	first := true
	for i := 0; i < int(numCats); i++ {
		if Cat(i) >= numLegacyCats && !used[i] {
			continue
		}
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
		b = append(b, `{"ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"thread_name","args":{"name":`...)
		b = strconv.AppendQuote(b, catNames[i])
		b = append(b, "}}"...)
	}
	// Spans and instants, in begin order.
	for i := range c.spans {
		s := &c.spans[i]
		if keep != nil && !keep(s) {
			continue
		}
		b = append(b, ",\n"...)
		b = c.appendSpanEvent(b, s)
	}
	// Metric samples as counter tracks, tick-major then registration
	// order — never a map walk.
	if keep == nil {
		for k := range c.smp.times {
			for m := range c.smp.cols {
				b = append(b, ",\n"...)
				b = append(b, `{"ph":"C","pid":1,"ts":`...)
				b = appendMicros(b, c.smp.times[k])
				b = append(b, `,"name":`...)
				b = strconv.AppendQuote(b, c.reg.Name(m))
				b = append(b, `,"args":{"value":`...)
				b = strconv.AppendFloat(b, c.smp.cols[m][k], 'g', -1, 64)
				b = append(b, "}}"...)
			}
		}
	}
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}

// WriteTrace renders the whole run as Chrome trace_event JSON, loadable
// in Perfetto or chrome://tracing. Sim time maps to trace microseconds.
func (c *Collector) WriteTrace(w io.Writer) error {
	return c.writeTrace(w, nil)
}

// WriteTraceFiltered renders only the spans and instants carrying the
// integer attribute key=val — mcsd uses it to cut one job's trace out of
// a shared fleet run. Metric counter tracks are omitted: samples are
// fleet-global, not attributable to one job.
func (c *Collector) WriteTraceFiltered(w io.Writer, key string, val int64) error {
	return c.writeTrace(w, func(s *span) bool {
		v, ok := s.attrInt(key)
		return ok && v == val
	})
}

// WriteMetricsCSV renders the sampled metrics as one columnar CSV:
// a time_s column followed by one column per metric in registration
// order, matching Series.CSV's %.3f/%.6f cell formats.
func (c *Collector) WriteMetricsCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("time_s")
	for m := 0; m < c.reg.Len(); m++ {
		sb.WriteByte(',')
		sb.WriteString(c.reg.Name(m))
	}
	sb.WriteByte('\n')
	for k, at := range c.smp.times {
		fmt.Fprintf(&sb, "%.3f", at.Seconds())
		for m := range c.smp.cols {
			fmt.Fprintf(&sb, ",%.6f", c.smp.cols[m][k])
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Summary renders a compact ASCII digest of the run: span and instant
// counts per track, then min/mean/max per sampled metric.
func (c *Collector) Summary() string {
	var spans, instants [numCats]int
	for i := range c.spans {
		if c.spans[i].instant {
			instants[c.spans[i].cat]++
		} else {
			spans[c.spans[i].cat]++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "obs: %d spans, %d samples over %s\n",
		len(c.spans), c.smp.Len(), c.MaxTime())
	for i := 0; i < int(numCats); i++ {
		if spans[i] == 0 && instants[i] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-12s %5d spans %5d instants\n", catNames[i], spans[i], instants[i])
	}
	for m, col := range c.smp.cols {
		if len(col) == 0 {
			continue
		}
		s := Series{values: col}
		fmt.Fprintf(&sb, "  %-24s min %.3f mean %.3f max %.3f\n",
			c.reg.Name(m), s.Min(), s.Mean(), s.Max())
	}
	return sb.String()
}
