package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tufast"
	"tufast/internal/obs"
	"tufast/internal/wal"
)

// serve-write: an in-process durable tufastd (WAL at -wal-sync always,
// the daemon's default) over its default generated graph, driven by
// two closed-loop clients posting 64-op batches. The serialized
// mutation bracket does nearly all the work; jobs, snapshots and
// standing queries are absent.
const (
	writeClients = 2
	// writeMaxRate caps the ops one run may offer per measured second,
	// and so the daemon's mutation budget (budget = cap × seconds): the
	// shared space is an arena the daemon touches in full at boot, and it
	// panics when exhausted. A client that reaches its share of the cap
	// stops offering, and the window is measured up to that point.
	writeMaxRate = 180_000
	// writeJobBatches groups a client's consecutive batches into one
	// bulk-load job of 1024 ops, the workload's unit of bulk work.
	writeJobBatches = 16
)

func writeSpec(e env) daemonSpec {
	return daemonSpec{
		vertices: 100_000, avgDegree: 8, alpha: 2.1, graphSeed: 1,
		budgetOps: writeMaxRate * e.seconds,
		durable:   true,
	}
}

func writeSetup(e env) (float64, error) {
	d, s, err := startDaemon(writeSpec(e), e.dir)
	if err != nil {
		return 0, err
	}
	d.stop()
	return s, nil
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	out     outcomes
	done    []time.Duration // ack offsets of acknowledged batches
	lat     []float64       // their latencies, ms
	jobDone []time.Duration
	jobMS   []float64
	acks    []acked
	capAt   time.Duration // when the client reached its share of the cap
}

func writePass(e env, traced bool) (passResult, error) {
	spec := writeSpec(e)
	d, setupS, err := startDaemon(spec, e.dir)
	if err != nil {
		return passResult{}, err
	}
	defer d.stop()
	n := d.dyn.NumVertices()
	var g0 graphInfo
	if _, err := d.get("/v1/graph", &g0); err != nil {
		return passResult{}, err
	}
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
	logs := make([]clientLog, writeClients)
	perClient := spec.budgetOps / writeClients
	slice := window / slices
	commits := sampleEvery(slice, func() float64 { return float64(sys.StatsSnapshot().Commits) })
	heap := startHeapPeak()
	t0 := time.Now()
	deadline := t0.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < writeClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			gen := newBatchGen(e.seed*7919+int64(c), n)
			var body []byte
			offered, inJob, jobOK := 0, 0, true
			var jobStart time.Duration
			for time.Now().Before(deadline) {
				if offered+batchOps > perClient {
					lg.capAt = time.Since(t0)
					return
				}
				ops := gen.next()
				offered += len(ops)
				body = encodeBatch(body, ops)
				ts := time.Now()
				var ack batchAck
				st, err := d.post("/v1/edges", body, &ack)
				te := time.Now()
				if traced {
					id := tr.id()
					tr.record(span{ID: id, Req: id, Name: "client.batch", Start: int64(ts.Sub(tr.t0)), End: int64(te.Sub(tr.t0))})
				}
				if inJob == 0 {
					jobStart, jobOK = ts.Sub(t0), true
				}
				inJob++
				if lg.out.httpStatus(st, err) {
					lg.out.OK++
					lg.done = append(lg.done, te.Sub(t0))
					lg.lat = append(lg.lat, ms(te.Sub(ts)))
					lg.acks = append(lg.acks, acked{epoch: ack.Epoch, effective: ack.Inserted+ack.Removed > 0, ops: ops})
				} else {
					jobOK = false
				}
				if inJob == writeJobBatches {
					if jobOK {
						lg.jobDone = append(lg.jobDone, te.Sub(t0))
						lg.jobMS = append(lg.jobMS, ms(te.Sub(t0)-jobStart))
					}
					inJob = 0
				}
			}
		}(c)
	}
	wg.Wait()
	heapMB := heap.mb()
	commitRates := commits.rates(slice)
	rt1, st1 := sys.MetricsSnapshot(), sys.StatsSnapshot()

	r := passResult{SetupS: setupS, Metrics: map[string]float64{}, Timings: map[string]timing{}}
	var (
		done, jobDone []time.Duration
		lat, jobMS    []float64
		acks          []acked
		capped        bool
		measured      = window
	)
	for _, lg := range logs {
		r.Outcomes.add(lg.out)
		done = append(done, lg.done...)
		lat = append(lat, lg.lat...)
		jobDone = append(jobDone, lg.jobDone...)
		jobMS = append(jobMS, lg.jobMS...)
		acks = append(acks, lg.acks...)
		if lg.capAt > 0 {
			capped = true
			measured = min(measured, lg.capAt)
		}
	}
	r.Metrics["write_ops_per_s"] = batchOps * trimmedMean(sliceRates(done, measured, slices))
	if k := int(measured / slice); k < len(commitRates) {
		commitRates = commitRates[:max(k, 1)]
	}
	r.Metrics["tm_txn_per_s"] = trimmedMean(commitRates)
	r.Metrics["write_p99_ms"] = slicedQuantile(chunks(done, lat, 0.99), 0.99)
	r.Metrics["job_p90_ms"] = slicedQuantile(chunks(jobDone, jobMS, 0.90), 0.90)
	wt := summarize(lat)
	r.Timings["write_ms"] = wt
	r.Metrics["write_p50_ms"] = wt.P50
	jt := summarize(jobMS)
	r.Timings["job_ms"] = jt
	r.Metrics["job_per_s"] = trimmedMean(sliceRates(jobDone, measured, slices))
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
		r.Metrics["server.http_p50_us"] = wt.P50*1000 - r.Metrics["server.batch_p50_us"]
		// One checkpoint at the end of the run, timed from the client.
		ts := time.Now()
		st, err := d.post("/v1/checkpoint", nil, nil)
		if err != nil || st != http.StatusOK {
			return r, fmt.Errorf("checkpoint: status %d: %v", st, err)
		}
		r.Metrics["wal.checkpoint_ms"] = ms(time.Since(ts))
		if err := tr.write(traceFile(e, "serve-write")); err != nil {
			return r, err
		}
	}

	// Gate: the daemon's live arcs must equal the ReplayEdges oracle
	// over exactly the acknowledged batches, in epoch order.
	var g1 graphInfo
	if _, err := d.get("/v1/graph", &g1); err != nil {
		return r, err
	}
	want := replayOracle(d.base, acks)
	effective := 0
	for _, a := range acks {
		if a.effective {
			effective++
		}
	}
	r.Correct = g1.LiveArcs == want && g1.Epoch-g0.Epoch == uint64(effective)
	r.Gate = fmt.Sprintf("serve-write: live_arcs %d, oracle %d; epochs advanced %d, effective batches %d; budget %d ops, capped %v",
		g1.LiveArcs, want, g1.Epoch-g0.Epoch, effective, spec.budgetOps, capped)
	return r, nil
}

// serverMetrics fills the serving-layer metrics from two /metrics
// documents taken around the measured window.
func serverMetrics(m map[string]float64, before, after obs.Snapshot) {
	a, b := after.Server, before.Server
	if a == nil || b == nil {
		return
	}
	bl := histDelta(a.BatchLatency, b.BatchLatency)
	m["server.batch_p50_us"] = histQuantile(bl, 0.5) / 1000
	m["server.batch_p99_us"] = histQuantile(bl, 0.99) / 1000
	m["server.rejected"] = float64(a.Rejected + a.QuotaRejected - b.Rejected - b.QuotaRejected)
	m["standing.repairs"] = float64(a.StandingRepairs - b.StandingRepairs)
	m["standing.repair_lag_p50_ms"] = histQuantile(histDelta(a.RepairLag, b.RepairLag), 0.5) / 1e6
}

// writeReplay feeds the same seeded batch stream through the public
// functions handleEdges calls, in its order — DynGraph.ApplyStreamCtx,
// then wal.Log.Append under SyncAlways — with a span around each call.
func writeReplay(e env) (passResult, error) {
	spec := writeSpec(e)
	g := genGraph(spec)
	dyn := buildDyn(g, spec.budgetOps)
	dir := filepath.Join(e.dir, "wal")
	wlog, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return passResult{}, err
	}
	defer wlog.Close() // a scratch log; every append was already synced
	n := dyn.NumVertices()
	gens := make([]*batchGen, writeClients)
	for c := range gens {
		gens[c] = newBatchGen(e.seed*7919+int64(c), n)
	}
	space := dyn.System().Space()
	used0 := space.Used()
	tr := newTracer(1 << 20)
	ctx := context.Background()
	var (
		acks                 []acked
		applied, noops, offs int
	)
	deadline := time.Now().Add(e.window())
	lastGC := time.Now()
	var i int64
	for i = 1; time.Now().Before(deadline) && offs+batchOps <= spec.budgetOps; i++ {
		ops := gens[i%writeClients].next()
		offs += len(ops)
		root := tr.id()
		rs := tr.now()
		stats, err := timed(tr, root, i, "dyngraph.apply", func() (tufast.StreamStats, error) {
			return dyn.ApplyStreamCtx(ctx, ops, tufast.StreamOptions{Window: 4096})
		})
		if err != nil {
			return passResult{}, err
		}
		if stats.Inserted+stats.Removed > 0 {
			if _, err := timed(tr, root, i, "wal.append", func() (struct{}, error) {
				return struct{}{}, wlog.Append(stats.Epoch, ops)
			}); err != nil {
				return passResult{}, err
			}
		}
		tr.record(span{ID: root, Req: i, Name: "replay.batch", Start: rs, End: tr.now()})
		applied += stats.Applied
		noops += stats.NoOps
		acks = append(acks, acked{epoch: stats.Epoch, effective: stats.Inserted+stats.Removed > 0, ops: ops})
		if time.Since(lastGC) >= gcInterval {
			if err := replayGC(ctx, tr, dyn, i); err != nil {
				return passResult{}, err
			}
			lastGC = time.Now()
		}
	}
	ws := wlog.Stats()
	used := space.Used() - used0
	// Recorded only, like the end-of-run checkpoint: one cc and one sssp
	// job on the written graph, so the algorithms layer is timed on this
	// workload too (jobs take no part in its measured window).
	for _, algo := range []string{"cc", "sssp"} {
		if err := replayJob(ctx, tr, dyn, algo, 0, i); err != nil {
			return passResult{}, err
		}
	}
	r := passResult{Metrics: map[string]float64{}, Timings: map[string]timing{}}
	st := aggregate(tr.spans)
	r.Metrics["dyngraph.apply_us"] = st.p50("dyngraph.apply", time.Microsecond)
	r.Metrics["wal.append_us"] = st.p50("wal.append", time.Microsecond)
	r.Metrics["dyngraph.gc_ms"] = st.p50("dyngraph.gc", time.Millisecond)
	r.Metrics["dyngraph.compact_ms"] = st.p50("dyngraph.compact", time.Millisecond)
	r.Metrics["algorithms.cc_ms"] = st.p50("algorithms.cc", time.Millisecond)
	r.Metrics["algorithms.sssp_ms"] = st.p50("algorithms.sssp", time.Millisecond)
	if applied > 0 {
		r.Metrics["dyngraph.arena_words_per_op"] = float64(used) / float64(applied)
		r.Metrics["dyngraph.noop_frac"] = float64(noops) / float64(applied)
	}
	if ws.Appends > 0 {
		r.Metrics["wal.fsyncs_per_batch"] = float64(ws.Fsyncs) / float64(ws.Appends)
		r.Metrics["wal.bytes_per_op"] = float64(dirBytes(dir)) / float64(ws.AppendedOps)
	}
	r.Metrics["trace.unattributed_frac"] = st.unattributed()
	for _, name := range []string{"dyngraph.apply", "wal.append", "dyngraph.gc", "dyngraph.compact", "algorithms.cc", "algorithms.sssp"} {
		r.Timings[name+"_self_us"] = summarize(scale(st.self[name], 1e-3))
	}
	if err := tr.write(traceFile(e, "serve-write-replay")); err != nil {
		return r, err
	}
	// The replay is sequential, so its own oracle is exact too.
	want := replayOracle(g, acks)
	got := dyn.LiveArcs()
	r.Correct = got == want
	r.Gate = fmt.Sprintf("serve-write replay: live arcs %d, oracle %d over %d batches;%s", got, want, len(acks), st.describe())
	return r, nil
}

// timed runs f inside a span named name under parent.
func timed[T any](tr *tracer, parent, req int64, name string, f func() (T, error)) (T, error) {
	id := tr.id()
	s := tr.now()
	v, err := f()
	tr.record(span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: tr.now()})
	return v, err
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range ents {
		if info, err := de.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
