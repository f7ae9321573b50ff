package main

import (
	"math"
	"sort"
	"time"

	"tufast/internal/obs"
)

// quantile returns the q-quantile (q in [0,1]) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// trimmedMean is the interquartile mean of xs: the mean of the values
// between the first and third quartiles. Throughputs are reported as
// the interquartile mean of per-slice rates, which, like a median,
// ignores stalls and bursts in a few slices, but does not snap to the
// rate granularity of a single short slice.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if hi <= lo {
		return quantile(s, 0.5)
	}
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// percentileLadder lists the percentiles a timing may report beyond
// its median, lowest first.
var percentileLadder = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it, and false when even p90 has
// fewer (then only the median is meaningful).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// timing summarizes one latency population the way every timing is
// reported: its median, the highest percentile with ten samples beyond
// it, and the sample count.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Median bool    `json:"median_only,omitempty"`
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	t := timing{N: len(xs), P50: quantile(xs, 0.5)}
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, quantile(xs, p/100)
	} else {
		t.Median = true
	}
	return t
}

// tailGroups is how many parts of a run a tail percentile is taken
// over separately; see slicedQuantile.
const tailGroups = 12

// slicedQuantile returns the median, over groups (consecutive parts of
// the run), of each group's q-quantile. Only groups with at least ten
// samples beyond the quantile count; with none, it falls back to the
// q-quantile of all samples pooled. A tail percentile taken per part
// and then the median across parts is not moved by one part's
// disturbance on a shared host (an fsync stall, a neighbour's burst),
// as the pooled tail is.
func slicedQuantile(groups [][]float64, q float64) float64 {
	var per, all []float64
	for _, g := range groups {
		all = append(all, g...)
		if float64(len(g))*(1-q) < 10-1e-9 {
			continue
		}
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		per = append(per, quantile(s, q))
	}
	if len(per) == 0 {
		sort.Float64s(all)
		return quantile(all, q)
	}
	return median(per)
}

// chunks orders values by completion offset and splits them into
// consecutive groups of equal count, as many as leave each group ten
// samples beyond the q-quantile (at most tailGroups, at least one).
func chunks(at []time.Duration, v []float64, q float64) [][]float64 {
	idx := make([]int, len(at))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	k := min(tailGroups, max(1, int(float64(len(v))*(1-q)/10+1e-9)))
	groups := make([][]float64, k)
	for j, i := range idx {
		g := j * k / max(1, len(idx))
		groups[g] = append(groups[g], v[i])
	}
	return groups
}

// slices is how many equal parts a window is cut into; throughputs are
// the interquartile mean over them. Stalls in the TM runtime and fsync
// stalls last tens to hundreds of milliseconds, so slices are kept
// short enough that one stall spoils few of them.
const slices = 60

// sliceRates splits [0, window) into slices equal parts and returns the
// completion rate (events per second) in each, counting each event at
// its completion offset. Events at or past window are ignored.
func sliceRates(done []time.Duration, window time.Duration, slices int) []float64 {
	if slices <= 0 || window <= 0 {
		return nil
	}
	counts := make([]float64, slices)
	for _, d := range done {
		if d < 0 || d >= window {
			continue
		}
		counts[int(int64(d)*int64(slices)/int64(window))]++
	}
	per := window.Seconds() / float64(slices)
	for i := range counts {
		counts[i] /= per
	}
	return counts
}

// openLoop derives, for an open-loop generator, each request's latency
// measured from its due time (so a stall also charges the requests it
// delayed) and how late the generator sent it. Requests sent early are
// not late.
func openLoop(due, sent, done []time.Duration) (latency, late []float64) {
	latency = make([]float64, len(due))
	late = make([]float64, len(due))
	for i := range due {
		latency[i] = float64(done[i]-due[i]) / float64(time.Millisecond)
		if l := sent[i] - due[i]; l > 0 {
			late[i] = float64(l) / float64(time.Millisecond)
		}
	}
	return latency, late
}

// outcomes tallies every attempted operation by result. Nothing is
// dropped: every request the benchmark sends lands in exactly one field.
type outcomes struct {
	OK          int `json:"ok"`
	Rejected    int `json:"rejected_429"`
	ServerError int `json:"server_5xx"`
	ClientError int `json:"other_4xx"`
	Transport   int `json:"transport"`
	JobFailed   int `json:"job_failed"`
	JobDeadline int `json:"job_deadline"`
	JobCanceled int `json:"job_canceled"`
	PollTimeout int `json:"poll_timeout"`
	TxError     int `json:"tx_error"`
}

func (o outcomes) attempted() int { return o.OK + o.failed() }

func (o outcomes) failed() int {
	return o.Rejected + o.ServerError + o.ClientError + o.Transport +
		o.JobFailed + o.JobDeadline + o.JobCanceled + o.PollTimeout + o.TxError
}

// failFrac is failed or refused operations over attempted ones.
func (o outcomes) failFrac() float64 {
	if o.attempted() == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted())
}

func (o *outcomes) add(other outcomes) {
	o.OK += other.OK
	o.Rejected += other.Rejected
	o.ServerError += other.ServerError
	o.ClientError += other.ClientError
	o.Transport += other.Transport
	o.JobFailed += other.JobFailed
	o.JobDeadline += other.JobDeadline
	o.JobCanceled += other.JobCanceled
	o.PollTimeout += other.PollTimeout
	o.TxError += other.TxError
}

// httpStatus files one HTTP answer (err != nil: no answer at all).
func (o *outcomes) httpStatus(status int, err error) bool {
	switch {
	case err != nil:
		o.Transport++
	case status == 429:
		o.Rejected++
	case status >= 500:
		o.ServerError++
	case status >= 400:
		o.ClientError++
	default:
		return true
	}
	return false
}

// histDelta subtracts an earlier snapshot of the same histogram.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	out := obs.HistSnapshot{Counts: make([]uint64, len(after.Counts)), Sum: after.Sum - before.Sum}
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		out.Counts[i] = c
	}
	return out
}

// histQuantile estimates the q-quantile of a power-of-two histogram,
// interpolating linearly inside the bucket the rank falls in (bucket i
// spans [2^(i-1), 2^i)); 0 when empty.
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			frac := (rank - cum) / float64(c)
			return lo + frac*lo // bucket width equals its lower edge
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(h.Counts)-1)
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
