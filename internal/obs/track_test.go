package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTrackRecord(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(time.Second, "fault", "gpu[3]")
	tr.Record(2*time.Second, "kill", "job 0")
	tr.Record(3*time.Second, "repair", "gpu[3]")
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	want := TrackEvent{At: 2 * time.Second, Kind: "kill", Label: "job 0"}
	if tr.Events[1] != want {
		t.Fatalf("events[1] = %+v, want %+v", tr.Events[1], want)
	}
}

func TestTrackCSV(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(1500*time.Millisecond, "fault", "gpu[3], drawer 0")
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "time_s,faults_kind,label\n") {
		t.Fatalf("bad header: %q", csv)
	}
	if !strings.Contains(csv, "1.500,fault,gpu[3]; drawer 0") {
		t.Fatalf("bad row (commas must not break the format): %q", csv)
	}
}

func TestTrackTimeline(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(0, "fault", "")
	tr.Record(5*time.Second, "kill", "")
	tr.Record(5*time.Second, "repair", "")
	tr.Record(10*time.Second, "repair", "")
	line := tr.Timeline(10, 10*time.Second)
	if len([]rune(line)) != 10 {
		t.Fatalf("timeline width %d, want 10: %q", len([]rune(line)), line)
	}
	runes := []rune(line)
	if runes[0] != 'f' {
		t.Errorf("t=0 marker %q, want 'f'", runes[0])
	}
	if runes[5] != '*' {
		t.Errorf("colliding kinds at mid marker %q, want '*'", runes[5])
	}
	if runes[9] != 'r' {
		t.Errorf("end marker %q, want 'r'", runes[9])
	}
	if tr.Timeline(0, time.Second) != "" || tr.Timeline(10, 0) != "" {
		t.Error("degenerate timelines should be empty")
	}
}
