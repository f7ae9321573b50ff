package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/obs"
	"tufast/internal/server"
)

// serve-mixed: an in-process ephemeral tufastd (no WAL) where writes
// run beside reads on one graph. One open-loop writer posts 64-op
// batches at a fixed rate well under serve-write's capacity; one
// closed-loop analytics client cycles cc, sssp and degree recompute
// jobs and reads a standing pagerank query registered at set-up.
const (
	// mixedVertices keeps every recompute job well under a second and
	// lets the standing pagerank's repairs keep up with the writer; a
	// from-scratch pagerank here, which the gate runs, takes under one.
	mixedVertices = 5_000
	// mixedRate is the writer's batches per second (1280 ops/s).
	mixedRate = 20
	// jobPollTimeout bounds how long the client polls one job.
	jobPollTimeout = 10 * time.Second
)

var mixedAlgos = []string{"cc", "sssp", "degree"}

func mixedSpec(e env) daemonSpec {
	return daemonSpec{
		vertices: mixedVertices, avgDegree: 8, alpha: 2.1, graphSeed: 1,
		// Open loop: the run offers exactly this many ops.
		budgetOps:        mixedRate * batchOps * e.seconds,
		standingPageRank: true,
	}
}

func mixedSetup(e env) (float64, error) {
	d, s, err := startDaemon(mixedSpec(e), e.dir)
	if err != nil {
		return 0, err
	}
	d.stop()
	return s, nil
}

// jobStream is the analytics client's seeded request sequence.
type jobStream struct {
	rng *rand.Rand
	n   int
	i   int
}

func newJobStream(seed int64, n int) *jobStream {
	return &jobStream{rng: rand.New(rand.NewSource(seed)), n: n}
}

// next returns the algorithm and its sssp source (0 for the others).
func (s *jobStream) next() (string, uint32) {
	algo := mixedAlgos[s.i%len(mixedAlgos)]
	s.i++
	if algo == "sssp" {
		return algo, uint32(s.rng.Intn(s.n))
	}
	return algo, 0
}

func jobBody(algo string, source uint32) []byte {
	b := []byte(`{"algo":"` + algo + `"`)
	if algo == "sssp" {
		b = append(b, `,"source":`...)
		b = strconv.AppendUint(b, uint64(source), 10)
	}
	return append(b, '}')
}

// runJob submits one job and waits for its terminal state, filing the
// outcome. It returns the terminal view and whether the job succeeded.
func (d *daemon) runJob(body []byte, out *outcomes) (jobView, bool) {
	var v jobView
	st, err := d.post("/v1/jobs", body, &v)
	if !out.httpStatus(st, err) {
		return v, false
	}
	if v.Cached {
		out.OK++
		return v, true
	}
	v, err = d.await(v.JobID, jobPollTimeout)
	switch {
	case errors.Is(err, errPollTimeout):
		out.PollTimeout++
	case err != nil:
		out.Transport++
	case v.Status == server.StatusDone:
		out.OK++
		return v, true
	case v.Status == server.StatusDeadline:
		out.JobDeadline++
	case v.Status == server.StatusCanceled:
		out.JobCanceled++
	default:
		out.JobFailed++
	}
	return v, false
}

func mixedPass(e env, traced bool) (passResult, error) {
	spec := mixedSpec(e)
	d, setupS, err := startDaemon(spec, e.dir)
	if err != nil {
		return passResult{}, err
	}
	defer d.stop()
	n := d.dyn.NumVertices()
	sys := d.dyn.System()
	var m0 obs.Snapshot
	if traced {
		if m0, err = d.metrics(); err != nil {
			return passResult{}, err
		}
	}
	rt0, st0 := sys.MetricsSnapshot(), sys.StatsSnapshot()

	window := e.window()
	tr := newTracer(1 << 20)
	slice := window / slices
	commits := sampleEvery(slice, func() float64 { return float64(sys.StatsSnapshot().Commits) })
	var (
		wg                     sync.WaitGroup
		wOut, jOut             outcomes
		due, sent, fin         []time.Duration
		nAcked                 int
		jobDone                []time.Duration
		jobMS, queued, run     []float64
		jobs, cacheHits, reads int
	)
	heap := startHeapPeak()
	t0 := time.Now()
	interval := time.Second / mixedRate
	total := int(window / interval)
	wg.Add(2)
	go func() { // open-loop writer
		defer wg.Done()
		gen := newBatchGen(e.seed*7919, n)
		var body []byte
		for i := 0; i < total; i++ {
			ops := gen.next()
			body = encodeBatch(body, ops)
			dueAt := time.Duration(i) * interval
			if wait := dueAt - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			ts := time.Since(t0)
			st, err := d.post("/v1/edges", body, nil)
			te := time.Since(t0)
			if traced {
				id := tr.id()
				tr.record(span{ID: id, Req: id, Name: "client.batch", Start: int64(t0.Sub(tr.t0) + ts), End: int64(t0.Sub(tr.t0) + te)})
			}
			if wOut.httpStatus(st, err) {
				wOut.OK++
				due, sent, fin = append(due, dueAt), append(sent, ts), append(fin, te)
				nAcked++
			}
		}
	}()
	go func() { // closed-loop analytics client
		defer wg.Done()
		js := newJobStream(e.seed*7919+1, n)
		deadline := t0.Add(window)
		for time.Now().Before(deadline) {
			algo, src := js.next()
			ts := time.Since(t0)
			v, ok := d.runJob(jobBody(algo, src), &jOut)
			te := time.Since(t0)
			jobs++
			if traced {
				id := tr.id()
				tr.record(span{ID: id, Req: id, Name: "client.job." + algo, Start: int64(t0.Sub(tr.t0) + ts), End: int64(t0.Sub(tr.t0) + te)})
			}
			if ok {
				jobDone = append(jobDone, te)
				jobMS = append(jobMS, ms(te-ts))
				if v.Cached {
					cacheHits++
				} else {
					queued = append(queued, float64(v.QueuedMS))
					run = append(run, float64(v.RunMS))
				}
			}
			if js.i%len(mixedAlgos) == 0 {
				st, err := d.post("/v1/jobs", standingReq, nil)
				if jOut.httpStatus(st, err) {
					jOut.OK++
					reads++
				}
			}
		}
	}()
	wg.Wait()
	heapMB := heap.mb()
	commitRates := commits.rates(slice)
	rt1, st1 := sys.MetricsSnapshot(), sys.StatsSnapshot()

	r := passResult{SetupS: setupS, Metrics: map[string]float64{}, Timings: map[string]timing{}}
	r.Outcomes.add(wOut)
	r.Outcomes.add(jOut)
	lat, late := openLoop(due, sent, fin)
	r.Metrics["write_ops_per_s"] = batchOps * trimmedMean(sliceRates(fin, window, slices))
	r.Metrics["tm_txn_per_s"] = trimmedMean(commitRates)
	r.Metrics["write_p99_ms"] = slicedQuantile(chunks(due, lat, 0.99), 0.99)
	r.Metrics["job_p90_ms"] = slicedQuantile(chunks(jobDone, jobMS, 0.90), 0.90)
	wt := summarize(lat)
	r.Timings["write_ms"] = wt
	r.Metrics["write_p50_ms"] = wt.P50
	jt := summarize(jobMS)
	r.Timings["job_ms"] = jt
	r.Metrics["job_per_s"] = trimmedMean(sliceRates(jobDone, window, slices))
	r.Metrics["job_p50_ms"] = jt.P50
	r.Metrics["heap_peak_mb"] = heapMB

	if traced {
		m1, err := d.metrics()
		if err != nil {
			return r, err
		}
		coreMetrics(r.Metrics, rt0, rt1,
			float64(st1.HTMCapacity-st0.HTMCapacity), float64(st1.HTMConflicts-st0.HTMConflicts), st1.CurrentPeriod)
		serverMetrics(r.Metrics, m0, m1)
		if wt.N > 0 {
			// Client-side write latency here is timed from the due time;
			// the HTTP share is taken from the send time instead.
			sendLat := make([]float64, len(fin))
			for i := range fin {
				sendLat[i] = us(fin[i] - sent[i])
			}
			r.Metrics["server.http_p50_us"] = median(sendLat) - r.Metrics["server.batch_p50_us"]
		}
		lt := summarize(late)
		r.Timings["client.late_ms"] = lt
		r.Metrics["client.late_p99_ms"] = quantile(late, 0.99)
		if len(queued) > 0 {
			r.Metrics["jobs.queued_p50_ms"] = median(queued)
			r.Metrics["jobs.run_p50_ms"] = median(run)
		}
		if jobs > 0 {
			r.Metrics["jobs.cache_hit_frac"] = float64(cacheHits) / float64(jobs)
		}
		if err := tr.write(traceFile(e, "serve-mixed")); err != nil {
			return r, err
		}
	}

	ok, gate, err := mixedGate(d)
	if err != nil {
		return r, err
	}
	r.Correct = ok
	r.Gate = fmt.Sprintf("%s; %d batches acknowledged, %d jobs, %d standing reads", gate, nAcked, jobs, reads)
	return r, nil
}

// pagerankResult and ccResult mirror the daemon's result summaries.
type pagerankResult struct {
	Vertices int     `json:"vertices"`
	Sum      float64 `json:"sum"`
	Top      []struct {
		V     uint32  `json:"v"`
		Score float64 `json:"score"`
	} `json:"top"`
}

type ccResult struct {
	Vertices   int `json:"vertices"`
	Components int `json:"components"`
	Largest    int `json:"largest"`
}

// rankTol is the pagerank tolerance the repository's own
// delta-vs-static oracle tests use, taken relative for ranks above 1
// (hub ranks here reach tens).
const rankTol = 1e-3

// mixedGate checks, once the writer has stopped, that the standing
// pagerank matches a from-scratch algorithms.PageRank on the compacted
// graph and that a final cc job matches ConnectedComponents.
func mixedGate(d *daemon) (bool, string, error) {
	var gi graphInfo
	if _, err := d.get("/v1/graph", &gi); err != nil {
		return false, "", err
	}
	var sv jobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		sv = jobView{}
		st, err := d.post("/v1/jobs", standingReq, &sv)
		if err != nil {
			return false, "", err
		}
		if st == http.StatusOK && !sv.Repairing && sv.Epoch != nil && *sv.Epoch == gi.Epoch {
			break
		}
		if time.Now().After(deadline) {
			return false, fmt.Sprintf("serve-mixed: standing pagerank not exact at epoch %d within 30s", gi.Epoch), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	var pr pagerankResult
	if err := json.Unmarshal(sv.Result, &pr); err != nil {
		return false, "", err
	}
	view := d.dyn.View()
	g, err := view.Compact()
	view.Close()
	if err != nil {
		return false, "", err
	}
	ranks, err := algorithms.PageRank(tufast.NewSystem(g, tufast.Options{}), 0.85, 1e-6)
	if err != nil {
		return false, "", err
	}
	var sum, worst float64
	for _, x := range ranks {
		sum += x
	}
	for _, t := range pr.Top {
		worst = math.Max(worst, math.Abs(t.Score-ranks[t.V])/math.Max(1, ranks[t.V]))
	}
	prOK := len(pr.Top) > 0 && worst <= rankTol && math.Abs(pr.Sum-sum) <= rankTol*float64(len(ranks))

	var out outcomes
	v, ok := d.runJob([]byte(`{"algo":"cc"}`), &out)
	if !ok {
		return false, fmt.Sprintf("serve-mixed: final cc job failed: %+v", out), nil
	}
	var cc ccResult
	if err := json.Unmarshal(v.Result, &cc); err != nil {
		return false, "", err
	}
	comp, err := algorithms.ConnectedComponents(tufast.NewSystem(g, tufast.Options{}))
	if err != nil {
		return false, "", err
	}
	sizes := map[uint64]int{}
	largest := 0
	for _, c := range comp {
		sizes[c]++
		largest = max(largest, sizes[c])
	}
	ccOK := cc.Vertices == len(comp) && cc.Components == len(sizes) && cc.Largest == largest
	return prOK && ccOK, fmt.Sprintf(
		"serve-mixed: standing pagerank at epoch %d: worst top-%d relative |Δ| %.2g, sum %.6g vs %.6g; cc %d/%d components, largest %d/%d",
		gi.Epoch, len(pr.Top), worst, pr.Sum, sum, cc.Components, len(sizes), cc.Largest, largest), nil
}

// mixedReplay feeds the writer's seeded batches and the client's
// seeded jobs through the public functions the handlers and background
// loops call, in their order, with spans around each call:
// DynGraph.ApplyStreamCtx (standing hook DeltaPageRank.OnEdge wrapped
// in its own spans), DeltaPageRank.StabilizeCtx, DynGraph.View().Compact(),
// algorithms.*Ctx and DynGraph.GCCtx.
func mixedReplay(e env) (passResult, error) {
	spec := mixedSpec(e)
	g := genGraph(spec)
	dyn := buildDyn(g, spec.budgetOps)
	ctx := context.Background()
	pr := algorithms.NewDeltaPageRank(dyn, 0.85, 1e-6)
	if err := pr.StabilizeCtx(ctx); err != nil {
		return passResult{}, err
	}
	n := dyn.NumVertices()
	gen := newBatchGen(e.seed*7919, n)
	js := newJobStream(e.seed*7919+1, n)
	tr := newTracer(1 << 21)
	space := dyn.System().Space()
	used0 := space.Used()
	var (
		acks                 []acked
		applied, noops, offs int
	)
	deadline := time.Now().Add(e.window())
	lastGC := time.Now()
	for i := int64(1); time.Now().Before(deadline) && offs+batchOps <= spec.budgetOps; i++ {
		ops := gen.next()
		offs += len(ops)
		root, apply := tr.id(), tr.id()
		rs := tr.now()
		hook := func(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
			id, s := tr.id(), tr.now()
			err := pr.OnEdge(tx, op, changed, emit)
			tr.record(span{ID: id, Parent: apply, Req: i, Name: "standing.hook", Start: s, End: tr.now()})
			return err
		}
		stats, err := dyn.ApplyStreamCtx(ctx, ops, tufast.StreamOptions{Window: 4096, OnEdge: hook, Emit: pr.Emit})
		tr.record(span{ID: apply, Parent: root, Req: i, Name: "dyngraph.apply", Start: rs, End: tr.now()})
		if err != nil {
			return passResult{}, err
		}
		tr.record(span{ID: root, Req: i, Name: "replay.batch", Start: rs, End: tr.now()})
		applied += stats.Applied
		noops += stats.NoOps
		acks = append(acks, acked{epoch: stats.Epoch, effective: stats.Inserted+stats.Removed > 0, ops: ops})

		// The repair worker's cycle after each effective batch.
		rep, reps := tr.id(), tr.now()
		if _, err := timed(tr, rep, i, "standing.stabilize", func() (struct{}, error) {
			return struct{}{}, pr.StabilizeCtx(ctx)
		}); err != nil {
			return passResult{}, err
		}
		tr.record(span{ID: rep, Req: i, Name: "replay.repair", Start: reps, End: tr.now()})

		algo, src := js.next()
		if err := replayJob(ctx, tr, dyn, algo, src, i); err != nil {
			return passResult{}, err
		}
		if time.Since(lastGC) >= gcInterval {
			if err := replayGC(ctx, tr, dyn, i); err != nil {
				return passResult{}, err
			}
			lastGC = time.Now()
		}
	}
	r := passResult{Metrics: map[string]float64{}, Timings: map[string]timing{}}
	st := aggregate(tr.spans)
	r.Metrics["dyngraph.apply_us"] = st.p50("dyngraph.apply", time.Microsecond)
	r.Metrics["standing.hook_us"] = st.p50("standing.hook", time.Microsecond)
	r.Metrics["standing.stabilize_ms"] = st.p50("standing.stabilize", time.Millisecond)
	r.Metrics["dyngraph.compact_ms"] = st.p50("dyngraph.compact", time.Millisecond)
	r.Metrics["dyngraph.gc_ms"] = st.p50("dyngraph.gc", time.Millisecond)
	r.Metrics["algorithms.cc_ms"] = st.p50("algorithms.cc", time.Millisecond)
	r.Metrics["algorithms.sssp_ms"] = st.p50("algorithms.sssp", time.Millisecond)
	if applied > 0 {
		r.Metrics["dyngraph.arena_words_per_op"] = float64(space.Used()-used0) / float64(applied)
		r.Metrics["dyngraph.noop_frac"] = float64(noops) / float64(applied)
	}
	r.Metrics["trace.unattributed_frac"] = st.unattributed()
	for _, name := range []string{"dyngraph.apply", "standing.hook", "standing.stabilize", "dyngraph.compact", "algorithms.cc", "algorithms.sssp", "dyngraph.gc"} {
		r.Timings[name+"_self_us"] = summarize(scale(st.self[name], 1e-3))
	}
	if err := tr.write(traceFile(e, "serve-mixed-replay")); err != nil {
		return r, err
	}
	want := replayOracle(g, acks)
	got := dyn.LiveArcs()
	r.Correct = got == want && tr.dropped == 0
	r.Gate = fmt.Sprintf("serve-mixed replay: live arcs %d, oracle %d over %d batches, %d spans dropped;%s",
		got, want, len(acks), tr.dropped, st.describe())
	return r, nil
}

// replayJob runs one job the way the job runner does: compact a pinned
// view, then run the algorithm on a fresh runtime over the snapshot.
func replayJob(ctx context.Context, tr *tracer, dyn *tufast.DynGraph, algo string, src uint32, req int64) error {
	root := tr.id()
	rs := tr.now()
	g, err := timed(tr, root, req, "dyngraph.compact", func() (*tufast.Graph, error) {
		view := dyn.View()
		defer view.Close()
		return view.Compact()
	})
	if err != nil {
		return err
	}
	switch algo {
	case "cc":
		sys := tufast.NewSystem(g, tufast.Options{})
		_, err = timed(tr, root, req, "algorithms.cc", func() ([]uint64, error) {
			return algorithms.ConnectedComponentsCtx(ctx, sys)
		})
	case "sssp":
		sys := tufast.NewSystem(g, tufast.Options{})
		_, err = timed(tr, root, req, "algorithms.sssp", func() ([]uint64, error) {
			return algorithms.ShortestPathsSPFACtx(ctx, sys, src)
		})
	}
	// A degree job is the handler's own summary over the snapshot: no
	// layer call beyond the compaction.
	tr.record(span{ID: root, Req: req, Name: "replay.job." + algo, Start: rs, End: tr.now()})
	return err
}

// gcInterval is the daemon's default chain-GC period; replays call
// DynGraph.GCCtx at the same cadence, with the same headroom reserve
// (one maximal batch of blocks).
const gcInterval = 2 * time.Second

func replayGC(ctx context.Context, tr *tracer, dyn *tufast.DynGraph, req int64) error {
	root := tr.id()
	rs := tr.now()
	_, err := timed(tr, root, req, "dyngraph.gc", func() (int, error) {
		return dyn.GCCtx(ctx, 16*65536)
	})
	tr.record(span{ID: root, Req: req, Name: "replay.gc", Start: rs, End: tr.now()})
	return err
}
