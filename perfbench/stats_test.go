package main

import (
	"math"
	"testing"
	"time"

	"tufast/internal/obs"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false}, // p90 would have 9.9 samples beyond it
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{5000000, 99.99, true}, // the ladder ends at p99.99
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailP != 99 || s.Median {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Fatalf("p50 %v p99 %v", s.P50, s.Tail)
	}
	if few := summarize([]float64{3, 1, 2}); !few.Median || few.P50 != 2 {
		t.Fatalf("three samples: %+v", few)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children: [10,40) ∪ [30,60) covers 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child spilling past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// Contained duplicate of b adds nothing.
		{ID: 6, Parent: 1, Name: "e", Start: 35, End: 55},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	st := aggregate(spans)
	if got := st.unattributed(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.4", got)
	}
	if got := st.p50("a", time.Nanosecond); got != 20 {
		t.Errorf("p50(a) = %v, want 20", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	due := []time.Duration{0, msd(10), msd(20), msd(30)}
	// The second request stalls for 25 ms; the generator sends the next
	// ones late, and their latency includes the wait they were due for.
	sent := []time.Duration{0, msd(10), msd(35), msd(36)}
	done := []time.Duration{msd(2), msd(35), msd(36), msd(38)}
	lat, late := openLoop(due, sent, done)
	wantLat := []float64{2, 25, 16, 8}
	wantLate := []float64{0, 0, 15, 6}
	for i := range due {
		if math.Abs(lat[i]-wantLat[i]) > 1e-9 || math.Abs(late[i]-wantLate[i]) > 1e-9 {
			t.Errorf("request %d: latency %v late %v, want %v %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	// A request sent before it was due is not late.
	if _, l := openLoop([]time.Duration{msd(5)}, []time.Duration{msd(4)}, []time.Duration{msd(6)}); l[0] != 0 {
		t.Errorf("early send counted as %v ms late", l[0])
	}
}

func TestFailFracCountsEveryOutcome(t *testing.T) {
	var o outcomes
	for _, st := range []int{200, 202, 200, 429, 503, 500, 404} {
		if o.httpStatus(st, nil) {
			o.OK++
		}
	}
	o.httpStatus(0, errPollTimeout) // no answer: transport
	o.JobFailed++
	o.JobDeadline++
	o.JobCanceled++
	o.PollTimeout++
	o.TxError++
	// 3 ok; failed: 429, two 5xx, 404, transport, job failed, deadline,
	// canceled, poll timeout, tx error.
	if o.attempted() != 13 {
		t.Fatalf("attempted %d (%+v)", o.attempted(), o)
	}
	if got, want := o.failFrac(), 10.0/13; math.Abs(got-want) > 1e-12 {
		t.Fatalf("failFrac %v, want %v (%+v)", got, want, o)
	}
	var empty outcomes
	if empty.failFrac() != 0 {
		t.Fatal("no attempts must give fail_frac 0")
	}
}

func TestSliceRatesMedian(t *testing.T) {
	// 10 events in the first half second, 30 in the second, one past
	// the window (ignored).
	var done []time.Duration
	for i := 0; i < 10; i++ {
		done = append(done, time.Duration(i)*10*time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		done = append(done, 500*time.Millisecond+time.Duration(i)*10*time.Millisecond)
	}
	done = append(done, time.Second)
	r := sliceRates(done, time.Second, 2)
	if r[0] != 20 || r[1] != 60 || median(r) != 40 {
		t.Fatalf("rates %v", r)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	h := obs.HistSnapshot{Counts: make([]uint64, obs.HistBuckets)}
	h.Counts[11] = 100 // values in [1024, 2048)
	if got := histQuantile(h, 0.5); got != 1536 {
		t.Fatalf("p50 = %v, want 1536", got)
	}
	before := obs.HistSnapshot{Counts: make([]uint64, obs.HistBuckets)}
	before.Counts[11] = 100
	after := obs.HistSnapshot{Counts: make([]uint64, obs.HistBuckets)}
	after.Counts[11] = 100
	after.Counts[12] = 50
	if got := histQuantile(histDelta(after, before), 0.5); got != 3072 {
		t.Fatalf("delta p50 = %v, want 3072", got)
	}
	if histQuantile(obs.HistSnapshot{}, 0.5) != 0 {
		t.Fatal("empty histogram must give 0")
	}
}

func TestTrimmedMeanIgnoresOuterQuartiles(t *testing.T) {
	// One stalled slice and one burst do not move the estimate.
	if got := trimmedMean([]float64{100, 0, 110, 90, 105, 95, 1000, 100}); got != 100 {
		t.Fatalf("trimmed mean %v, want 100", got)
	}
	if got := trimmedMean([]float64{7}); got != 7 {
		t.Fatalf("single value: %v", got)
	}
}

func TestSlicedQuantileSkipsThinGroups(t *testing.T) {
	flat := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	// Three groups with enough samples for a p90 (median of 1, 2, 50:
	// the disturbed group does not move it) and one thin group that
	// does not count.
	groups := [][]float64{flat(100, 1), flat(100, 2), flat(100, 50), flat(5, 1000)}
	if got := slicedQuantile(groups, 0.9); got != 2 {
		t.Fatalf("sliced p90 %v, want 2", got)
	}
	// No group qualifies: the pooled quantile is used.
	if got := slicedQuantile([][]float64{{1, 2}, {3, 4}}, 0.5); got != 2.5 {
		t.Fatalf("pooled p50 %v, want 2.5", got)
	}
	// 2500 samples leave room for twelve p90 groups of about 208; 1100
	// samples leave room for one p99 group.
	at := make([]time.Duration, 2500)
	v := make([]float64, 2500)
	for i := range at {
		at[i] = time.Duration(len(at) - i) // reversed: chunks must order by time
		v[i] = float64(i)
	}
	if g := chunks(at, v, 0.90); len(g) != tailGroups || len(g[0]) < 208 || len(g[0]) > 209 || g[0][0] != 2499 {
		t.Fatalf("p90 groups: %d, first %d values starting %v", len(g), len(g[0]), g[0][0])
	}
	if g := chunks(at[:1100], v[:1100], 0.99); len(g) != 1 || len(g[0]) != 1100 {
		t.Fatalf("p99 groups: %d", len(g))
	}
	if g := chunks(nil, nil, 0.99); len(g) != 1 || len(g[0]) != 0 {
		t.Fatalf("empty: %v", g)
	}
}
