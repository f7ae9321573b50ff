package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
)

// tm-rw: the paper's §VI-B RW neighbourhood transaction (read and write
// v and every neighbour) on core.System with its calibrations on, no
// daemon. Two closed-loop workers each run rounds of a fixed count of
// transactions; a round is the workload's unit of bulk work ("job").
const (
	// tmrwScale sizes the twitter-mpi stand-in (10k vertices, about 37
	// edges per vertex, degree exponent 2.0). At larger scales uniformly
	// drawn hubs hold L-mode locks long enough that single rounds stall
	// for seconds, and no run-level figure is repeatable.
	tmrwScale   = 0.1
	tmrwWorkers = 2
	tmrwRound   = 1000 // transactions per worker per round
	// tmrwMaxRate bounds the pre-generated vertex sequence: the run
	// wraps around it only past this many transactions per second.
	tmrwMaxRate = 400_000
)

type tmrwSystem struct {
	g    *graph.CSR
	sp   *mem.Space
	base mem.Addr
	sys  *core.System
}

// tmrwBuild is the timed set-up: the stand-in graph, the shared space
// holding one property word per vertex, and the runtime.
func tmrwBuild() (*tmrwSystem, float64) {
	start := time.Now()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(tmrwScale)
	n := g.NumVertices()
	sp := mem.NewSpace(2*n + 1024)
	base := sp.AllocLineAligned(n)
	sys := core.New(sp, n, core.Config{})
	return &tmrwSystem{g: g, sp: sp, base: base, sys: sys}, time.Since(start).Seconds()
}

func tmrwSetup(env) (float64, error) {
	_, s := tmrwBuild()
	return s, nil
}

// tmrwInputs draws the vertex sequence: uniform without replacement in
// passes (each pass a fresh seeded permutation), so every full pass
// carries the same work and the seed changes only the order.
func tmrwInputs(seed int64, n, total int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]uint32, 0, total+n)
	for len(seq) < total {
		for _, v := range rng.Perm(n) {
			seq = append(seq, uint32(v))
		}
	}
	return seq
}

// tmrwLog is what one worker saw, kept compact: the run commits over
// a million transactions, and per-transaction records would make the
// benchmark's own heap dominate heap_peak_mb.
type tmrwLog struct {
	lat            [][]float32 // per committed transaction, µs, by tail group
	class          []uint8     // routing class of each, in order (traced pass only)
	txns, writes   [slices]float64
	rounds         []float64 // round durations, ms
	roundAt        []time.Duration
	roundsPerSlice [slices]float64
	spans          []span // the first spans, written out (traced pass only)
	expect         uint64
	errs           int
}

// tmrwClasses names the Fig. 10 routing classes a size hint selects.
var tmrwClasses = []string{"h", "o", "l"}

func tmrwPass(e env, traced bool) (passResult, error) {
	s, setupS := tmrwBuild()
	g, sys := s.g, s.sys
	n := g.NumVertices()
	seq := tmrwInputs(e.seed, n, tmrwMaxRate*e.seconds)
	cfg := sys.Config()

	workers := make([]sched.Worker, tmrwWorkers)
	for i := range workers {
		workers[i] = sys.Worker(i)
	}
	snap0 := sys.Metrics().Snapshot()
	htm0 := sys.HTMStats().Snapshot()

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		logs   = make([]tmrwLog, tmrwWorkers)
	)
	for i := range logs {
		// Sized up front so heap_peak_mb does not step with throughput.
		logs[i].lat = make([][]float32, tailGroups)
		for k := range logs[i].lat {
			logs[i].lat[k] = make([]float32, 0, tmrwMaxRate/tmrwWorkers*e.seconds/tailGroups)
		}
	}
	window := e.window()
	heap := startHeapPeak()
	t0 := time.Now()
	deadline := t0.Add(window)
	slot := func(t time.Time) int { return int(int64(t.Sub(t0)) * slices / int64(window)) }
	for tid := 0; tid < tmrwWorkers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w, lg := workers[tid], &logs[tid]
			for {
				rs := time.Now()
				done := 0
				for ; done < tmrwRound; done++ {
					v := seq[int(cursor.Add(1)-1)%len(seq)]
					nb := g.Neighbors(v)
					hint := 2*len(nb) + 2
					ts := time.Now()
					if !ts.Before(deadline) {
						break
					}
					err := w.Run(hint, func(tx sched.Tx) error {
						// The mid-body yield forces interleavings on
						// few-core hosts, as in the paper's workload code.
						half := len(nb) / 2
						a := s.base + mem.Addr(v)
						tx.Write(v, a, tx.Read(v, a)+1)
						for i, u := range nb {
							a := s.base + mem.Addr(u)
							tx.Write(u, a, tx.Read(u, a)+1)
							if i == half {
								runtime.Gosched()
							}
						}
						return nil
					})
					te := time.Now()
					if err != nil {
						lg.errs++
						continue
					}
					lg.expect += uint64(len(nb) + 1)
					k := min(int(int64(te.Sub(t0))*tailGroups/int64(window)), tailGroups-1)
					lg.lat[k] = append(lg.lat[k], float32(us(te.Sub(ts))))
					if k := slot(te); k < slices {
						lg.txns[k]++
						lg.writes[k] += float64(len(nb) + 1)
					}
					if traced {
						c := uint8(2)
						switch {
						case hint <= cfg.HMaxHint:
							c = 0
						case hint <= cfg.OMaxHint:
							c = 1
						}
						lg.class = append(lg.class, c)
						if len(lg.spans) < 100_000 {
							id := int64(tid)<<40 | int64(len(lg.class))
							lg.spans = append(lg.spans, span{ID: id, Req: id, Name: "tm.txn." + tmrwClasses[c],
								Start: int64(ts.Sub(t0)), End: int64(te.Sub(t0))})
						}
					}
				}
				if done < tmrwRound {
					return
				}
				re := time.Now()
				lg.rounds = append(lg.rounds, ms(re.Sub(rs)))
				lg.roundAt = append(lg.roundAt, re.Sub(t0))
				if k := slot(re); k < slices {
					lg.roundsPerSlice[k]++
				}
			}
		}(tid)
	}
	wg.Wait()
	heapMB := heap.mb()
	snap1 := sys.Metrics().Snapshot()
	htm1 := sys.HTMStats().Snapshot()

	// Gate: every committed RW transaction added 1 to v and to each
	// neighbour, so the property words must sum to Σ(deg(v)+1) over the
	// committed transactions; a lost update shows as a shortfall.
	var want, got uint64
	for _, lg := range logs {
		want += lg.expect
	}
	for v := 0; v < n; v++ {
		got += s.sp.Load(s.base + mem.Addr(v))
	}
	r := passResult{
		SetupS:  setupS,
		Correct: got == want,
		Gate:    fmt.Sprintf("tm-rw: property sum %d, expected %d", got, want),
		Metrics: map[string]float64{},
		Timings: map[string]timing{},
	}

	per := window.Seconds() / slices
	txnRate, writeRate, roundRate := make([]float64, slices), make([]float64, slices), make([]float64, slices)
	var lat, rounds []float64
	var roundAt []time.Duration
	latByGroup := make([][]float64, tailGroups)
	byClass := make([][]float64, len(tmrwClasses))
	for _, lg := range logs {
		r.Outcomes.TxError += lg.errs
		for k := 0; k < slices; k++ {
			txnRate[k] += lg.txns[k] / per
			writeRate[k] += lg.writes[k] / per
			roundRate[k] += lg.roundsPerSlice[k] / per
		}
		i := 0
		for k, xs := range lg.lat {
			r.Outcomes.OK += len(xs)
			for _, x := range xs {
				v := float64(x) / 1000
				lat = append(lat, v)
				latByGroup[k] = append(latByGroup[k], v)
				if traced {
					byClass[lg.class[i]] = append(byClass[lg.class[i]], float64(x))
				}
				i++
			}
		}
		rounds = append(rounds, lg.rounds...)
		roundAt = append(roundAt, lg.roundAt...)
	}
	r.Metrics["tm_txn_per_s"] = trimmedMean(txnRate)
	r.Metrics["write_ops_per_s"] = trimmedMean(writeRate)
	r.Metrics["write_p99_ms"] = slicedQuantile(latByGroup, 0.99)
	r.Metrics["job_p90_ms"] = slicedQuantile(chunks(roundAt, rounds, 0.90), 0.90)
	wt := summarize(lat)
	r.Timings["write_ms"] = wt
	r.Metrics["write_p50_ms"] = wt.P50
	jt := summarize(rounds)
	r.Timings["job_ms"] = jt
	r.Metrics["job_per_s"] = trimmedMean(roundRate)
	r.Metrics["job_p50_ms"] = jt.P50
	r.Metrics["heap_peak_mb"] = heapMB

	if traced {
		coreMetrics(r.Metrics, snap0, snap1,
			float64(htm1.AbortCapacity-htm0.AbortCapacity),
			float64(htm1.AbortConflicts-htm0.AbortConflicts), sys.CurrentPeriod())
		// tm.txn_us.<class>: the span around each Worker.Run, grouped by
		// the routing class its size hint selects.
		// Worker time outside Worker.Run: drawing the vertex, reading the
		// clock, round bookkeeping.
		var inRun float64
		for _, x := range lat {
			inRun += x
		}
		r.Metrics["trace.unattributed_frac"] = 1 - inRun/(ms(window)*tmrwWorkers)
		for c, name := range tmrwClasses {
			if len(byClass[c]) > 0 {
				t := summarize(byClass[c])
				r.Timings["tm.txn_us."+name] = t
				r.Metrics["tm.txn_us."+name] = t.P50
			}
		}
		tr := newTracer(200_000)
		for _, lg := range logs {
			for _, sp := range lg.spans {
				tr.record(sp)
			}
		}
		if err := tr.write(traceFile(e, "tm-rw")); err != nil {
			return r, err
		}
	}
	return r, nil
}

// coreMetrics fills the core/htm layer metrics from two runtime
// snapshots taken around the measured window.
func coreMetrics(m map[string]float64, before, after obs.Snapshot, capAborts, conflictAborts float64, period int) {
	var commits, aborts float64
	for _, md := range modes {
		a, b := after.Modes[md.obs], before.Modes[md.obs]
		c := float64(a.Commits - b.Commits)
		ab := float64(a.AbortTotal() - b.AbortTotal())
		commits += c
		aborts += ab
		m["core.commits."+md.name] = c
		m["core.aborts."+md.name] = ab
		m["core.commit_p50_us."+md.name] = histQuantile(histDelta(a.Latency, b.Latency), 0.5) / 1000
	}
	if commits+aborts > 0 {
		m["core.commit_frac"] = commits / (commits + aborts)
	}
	m["core.h_to_o"] = float64(after.Transitions["h_to_o"] - before.Transitions["h_to_o"])
	m["core.o_to_l"] = float64(after.Transitions["o_to_l"] - before.Transitions["o_to_l"])
	m["core.period"] = float64(period)
	m["htm.capacity_aborts"] = capAborts
	m["htm.conflict_aborts"] = conflictAborts
}
