package main

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// spanLog records the benchmark's own host-time spans during the traced
// pass: one per scenario, and inside it one around each call into a layer
// (composition, the run, fingerprinting, and every placement decision).
// The spans are measured from outside the program; a nil log records
// nothing, which is how every other pass runs.
type spanLog struct {
	t0       time.Time
	scenario int
	spans    []span
	places   int
	placesOK int
}

type span struct {
	name       string
	scenario   int
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, scenario: l.scenario, start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(l.t0)
}

func (l *spanLog) placed(ok bool) {
	l.places++
	if ok {
		l.placesOK++
	}
}

// perScenario sums the wall time of the named spans in each scenario.
func (l *spanLog) perScenario(name string, scenarios int) []time.Duration {
	out := make([]time.Duration, scenarios)
	for _, s := range l.spans {
		if s.name == name && s.scenario < scenarios {
			out[s.scenario] += s.end - s.start
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microseconds), loadable in Perfetto or chrome://tracing.
func (l *spanLog) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n{\"name\":")
		bw.WriteString(strconv.Quote(s.name))
		bw.WriteString(`,"cat":"bench","ph":"X","pid":1,"tid":1,"ts":`)
		bw.WriteString(strconv.FormatFloat(float64(s.start)/1e3, 'f', 3, 64))
		bw.WriteString(`,"dur":`)
		bw.WriteString(strconv.FormatFloat(float64(s.end-s.start)/1e3, 'f', 3, 64))
		bw.WriteString(`,"args":{"scenario":`)
		bw.WriteString(strconv.Itoa(s.scenario))
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
