package obs

import "time"

// TrackEvent is one annotated observation on an event track.
type TrackEvent struct {
	At    time.Duration
	Kind  string // e.g. "fault", "repair", "kill"
	Label string
}

// Track is an annotated event series: discrete occurrences (faults,
// repairs, kills) alongside the sampled gauge series. The paper's tooling
// overlays exactly these marks on its utilization plots; Timeline is the
// ASCII analog.
type Track struct {
	Name   string
	Events []TrackEvent
}

// NewTrack creates an empty track.
func NewTrack(name string) *Track { return &Track{Name: name} }

// Record appends one event.
func (t *Track) Record(at time.Duration, kind, label string) {
	t.Events = append(t.Events, TrackEvent{At: at, Kind: kind, Label: label})
}

// Len returns the event count.
func (t *Track) Len() int { return len(t.Events) }

// Timeline renders the track as a fixed-width ASCII lane over [0, span]:
// each column shows the first rune of the kind of the event(s) landing in
// its bucket, '*' when kinds collide, '·' when empty. It is the event
// overlay for the Sparkline gauge charts.
func (t *Track) Timeline(width int, span time.Duration) string {
	if width <= 0 || span <= 0 {
		return ""
	}
	marks := make([]rune, width)
	for i := range marks {
		marks[i] = '·'
	}
	for _, e := range t.Events {
		if e.At < 0 || e.At > span {
			continue
		}
		i := int(float64(e.At) / float64(span) * float64(width))
		if i >= width {
			i = width - 1
		}
		r := '?'
		for _, c := range e.Kind {
			r = c
			break
		}
		switch marks[i] {
		case '·':
			marks[i] = r
		case r:
		default:
			marks[i] = '*'
		}
	}
	return string(marks)
}
