package analyze

import (
	"sort"
	"time"
)

// Bucket is one attribution category of a job's wall time.
type Bucket uint8

// The attribution buckets, in render order.
const (
	BucketWait Bucket = iota
	BucketCompose
	BucketCompute
	BucketCheckpoint
	BucketRestore
	BucketWinddown
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"wait", "compose", "compute", "checkpoint", "restore", "winddown",
}

// String returns the bucket's name.
func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return "unknown"
}

// Segment is one interval of a job's critical path, attributed to a
// single bucket.
type Segment struct {
	Bucket Bucket
	Start  time.Duration
	End    time.Duration
}

// Dur returns the segment's extent.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// JobAttribution is one job's complete time accounting: an ordered,
// gapless critical path tiling [Arrival, Finish], and per-bucket
// totals that sum to Wall exactly.
type JobAttribution struct {
	Job      int64
	Arrival  time.Duration
	Finish   time.Duration
	Wall     time.Duration
	Buckets  [NumBuckets]time.Duration
	Attempts int // scheduling attempts (wait episodes)
	Kills    int
	Failed   bool // abandoned after exhausting retries
	Path     []Segment
}

// Analysis is the full post-hoc digest of one run's trace.
type Analysis struct {
	Jobs    []JobAttribution // ascending job ID
	Blame   [NumBuckets]time.Duration
	Wait    *Histogram // per-job total queue wait
	Latency *Histogram // per completed job: arrival → finish wall
	Compose *Histogram // per compose episode (attach/recompose cost)
	Horizon time.Duration
}

// FailedJobs counts jobs the trace marks abandoned.
func (a *Analysis) FailedJobs() int {
	n := 0
	for i := range a.Jobs {
		if a.Jobs[i].Failed {
			n++
		}
	}
	return n
}

// Slowest returns up to n jobs ordered by descending wall time (ties
// by ascending job ID, so the order is deterministic).
func (a *Analysis) Slowest(n int) []*JobAttribution {
	idx := make([]int, len(a.Jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		jx, jy := &a.Jobs[idx[x]], &a.Jobs[idx[y]]
		if jx.Wall != jy.Wall {
			return jx.Wall > jy.Wall
		}
		return jx.Job < jy.Job
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]*JobAttribution, n)
	for i := 0; i < n; i++ {
		out[i] = &a.Jobs[idx[i]]
	}
	return out
}

// jobSpans groups one job's raw material for attribution.
type jobSpans struct {
	phases   []Span          // wait/compose/run spans, begin order
	overhead []Span          // checkpoint/restore train spans
	kills    []time.Duration // kill instant times
	failed   bool
}

// Analyze attributes every job's wall time, totals the fleet blame,
// and builds the latency/wait/compose histograms. The input trace is
// not modified; calling Analyze twice yields identical results.
func (t *Trace) Analyze() *Analysis {
	byJob := map[int64]*jobSpans{}
	var ids []int64
	get := func(id int64) *jobSpans {
		js, ok := byJob[id]
		if !ok {
			js = &jobSpans{}
			byJob[id] = js
			ids = append(ids, id)
		}
		return js
	}
	for i := range t.Spans {
		sp := &t.Spans[i]
		if sp.Job < 0 {
			continue
		}
		switch sp.Cat {
		case "orchestrator":
			js := get(sp.Job)
			switch sp.Name {
			case "wait", "compose", "run":
				js.phases = append(js.phases, *sp)
			case "kill":
				js.kills = append(js.kills, sp.Start)
			case "fail":
				js.failed = true
			}
		case "train":
			switch sp.Name {
			case "checkpoint", "restore":
				js := get(sp.Job)
				js.overhead = append(js.overhead, *sp)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	a := &Analysis{
		Horizon: t.Horizon,
		Wait:    NewHistogram("wait"),
		Latency: NewHistogram("latency"),
		Compose: NewHistogram("compose"),
	}
	for _, id := range ids {
		js := byJob[id]
		if len(js.phases) == 0 {
			continue // instants only: nothing to attribute
		}
		ja := attributeJob(id, js)
		a.Wait.Add(ja.Buckets[BucketWait])
		if !ja.Failed {
			a.Latency.Add(ja.Wall)
		}
		for i := range js.phases {
			if js.phases[i].Name == "compose" {
				a.Compose.Add(js.phases[i].Dur())
			}
		}
		for b := Bucket(0); b < NumBuckets; b++ {
			a.Blame[b] += ja.Buckets[b]
		}
		a.Jobs = append(a.Jobs, ja)
	}
	a.Wait.seal()
	a.Latency.seal()
	a.Compose.seal()
	return a
}

// attributeJob tiles one job's phase spans into critical-path
// segments. The orchestrator's span discipline guarantees the phases
// abut (wait ends where compose begins, run ends where the next wait
// begins), so the segments tile [arrival, finish] with no gaps; the
// cursor sweep inside each phase guarantees no double counting, so the
// bucket totals sum to the wall span exactly.
func attributeJob(id int64, js *jobSpans) JobAttribution {
	ja := JobAttribution{Job: id, Failed: js.failed, Kills: len(js.kills)}
	ja.Arrival = js.phases[0].Start
	for i := range js.phases {
		p := &js.phases[i]
		if p.End > ja.Finish {
			ja.Finish = p.End
		}
		if p.Name == "wait" {
			ja.Attempts++
		}
	}
	ja.Wall = ja.Finish - ja.Arrival

	killOf := assignKills(js)
	for i := range js.phases {
		p := &js.phases[i]
		switch p.Name {
		case "wait":
			addSegment(&ja, BucketWait, p.Start, p.End)
		case "compose":
			end := p.End
			if killOf[i] >= 0 {
				end = killOf[i]
			}
			addSegment(&ja, BucketCompose, p.Start, end)
			if killOf[i] >= 0 {
				addSegment(&ja, BucketWinddown, killOf[i], p.End)
			}
		case "run":
			attributeRun(&ja, p, killOf[i], js)
		}
	}
	return ja
}

// assignKills maps each kill instant to the phase span in progress
// when it fired: the last phase that began at or before the kill.
// Containment alone would be ambiguous at boundaries — a drain, the
// requeue, and an immediate re-placement can all share one sim instant
// — but begin order is not. Returns killOf[i] = earliest kill time
// charged to phase i, clamped into the span, or -1. Wait spans take no
// kills (a queued job holds nothing to kill).
func assignKills(js *jobSpans) []time.Duration {
	killOf := make([]time.Duration, len(js.phases))
	for i := range killOf {
		killOf[i] = -1
	}
	for _, k := range js.kills {
		idx := -1
		for i := range js.phases {
			if js.phases[i].Start <= k {
				idx = i
			} else {
				break // phases are in begin order
			}
		}
		if idx < 0 || js.phases[idx].Name == "wait" {
			continue
		}
		at := k
		if at > js.phases[idx].End {
			at = js.phases[idx].End
		}
		if killOf[idx] < 0 || at < killOf[idx] {
			killOf[idx] = at
		}
	}
	return killOf
}

// attributeRun splits one run span into compute, checkpoint, restore
// and (after a kill) winddown segments. Overhead sub-intervals are
// clipped to the run span and swept with a cursor: whatever a later
// interval overlaps with an earlier one is claimed once, never twice,
// and the gaps between them are compute. killAt is the kill charged to
// this run span (-1 = none); its winddown tail competes in the same
// sweep, so an overlapping checkpoint is still counted once.
func attributeRun(ja *JobAttribution, run *Span, killAt time.Duration, js *jobSpans) {
	type sub struct {
		start, end time.Duration
		bucket     Bucket
	}
	var subs []sub
	for i := range js.overhead {
		o := &js.overhead[i]
		s, e := o.Start, o.End
		if s < run.Start {
			s = run.Start
		}
		if e > run.End {
			e = run.End
		}
		if s >= e {
			continue
		}
		b := BucketCheckpoint
		if o.Name == "restore" {
			b = BucketRestore
		}
		subs = append(subs, sub{s, e, b})
	}
	if killAt >= 0 {
		subs = append(subs, sub{killAt, run.End, BucketWinddown})
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].start != subs[j].start {
			return subs[i].start < subs[j].start
		}
		if subs[i].end != subs[j].end {
			return subs[i].end < subs[j].end
		}
		return subs[i].bucket < subs[j].bucket
	})
	cursor := run.Start
	for _, s := range subs {
		s0 := s.start
		if s0 < cursor {
			s0 = cursor // earlier interval already claimed the overlap
		}
		if s0 >= s.end {
			continue
		}
		addSegment(ja, BucketCompute, cursor, s0)
		addSegment(ja, s.bucket, s0, s.end)
		cursor = s.end
	}
	addSegment(ja, BucketCompute, cursor, run.End)
}

// addSegment appends a non-empty segment and charges its bucket.
func addSegment(ja *JobAttribution, b Bucket, start, end time.Duration) {
	if end <= start {
		return
	}
	ja.Buckets[b] += end - start
	ja.Path = append(ja.Path, Segment{Bucket: b, Start: start, End: end})
}
