package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"tufast"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/obs"
	"tufast/internal/server"
	"tufast/internal/wal"
)

// Shared pieces of the two tufastd workloads: an in-process daemon
// built the way cmd/tufastd builds one, the seeded edge-batch stream,
// and the HTTP client calls.

const (
	batchOps        = 64 // ops per POST /v1/edges batch
	deletesPerBatch = 16 // once a client has history to delete from
	// deleteLag keeps deletes on edges inserted a few batches earlier.
	deleteLag = 4 * batchOps
	// maxStanding matches tufastd's default -max-standing; the space is
	// budgeted for that many resident queries, as tufastd does.
	maxStanding = 8
)

// daemonSpec describes one in-process tufastd.
type daemonSpec struct {
	vertices, avgDegree int
	alpha               float64
	graphSeed           uint64
	budgetOps           int  // mutation budget the shared space is sized for
	durable             bool // WAL under -wal-sync always
	standingPageRank    bool // register one standing pagerank query
}

type daemon struct {
	srv    *server.Server
	dyn    *tufast.DynGraph
	base   *tufast.Graph
	url    string
	client *http.Client
}

// buildDyn sizes a runtime and overlay the way cmd/tufastd does:
// paper-default routing hints, the mutation budget plus four vertex
// arrays per standing-query slot.
func buildDyn(g *tufast.Graph, budgetOps int) *tufast.DynGraph {
	standingWords := maxStanding * 4 * (g.NumVertices() + 8)
	sys := tufast.NewSystem(g, tufast.Options{
		SpaceWords: tufast.DynSpaceWords(g, budgetOps) + standingWords,
	})
	return tufast.NewDynGraph(sys)
}

func genGraph(spec daemonSpec) *tufast.Graph {
	return tufast.GeneratePowerLaw(spec.vertices, spec.vertices*spec.avgDegree, spec.alpha, spec.graphSeed).Undirect()
}

// startDaemon boots the daemon and returns it with the seconds until
// the first request could be served (graph generation, boot or durable
// open, standing-query seeding).
func startDaemon(spec daemonSpec, dir string) (*daemon, float64, error) {
	start := time.Now()
	d := &daemon{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	loadBase := func() (*tufast.Graph, error) { return genGraph(spec), nil }
	mkDyn := func(g *tufast.Graph) *tufast.DynGraph {
		d.base = g
		d.dyn = buildDyn(g, spec.budgetOps)
		return d.dyn
	}
	cfg := server.Config{Addr: "127.0.0.1:0"}
	var err error
	if spec.durable {
		d.srv, err = server.OpenDurable(cfg, server.DurabilityConfig{
			DataDir: filepath.Join(dir, "data"),
			Sync:    wal.SyncAlways,
			// Off for the timed window; the traced pass takes one
			// checkpoint explicitly at the end.
			CheckpointInterval: -1,
		}, loadBase, mkDyn)
		if err != nil {
			return nil, 0, err
		}
	} else {
		g, _ := loadBase()
		d.srv = server.New(mkDyn(g), cfg)
	}
	if err := d.srv.Start(); err != nil {
		return nil, 0, err
	}
	d.url = "http://" + d.srv.Addr()
	if st, err := d.get("/healthz", nil); err != nil || st != http.StatusOK {
		d.stop()
		return nil, 0, fmt.Errorf("daemon not serving: status %d: %v", st, err)
	}
	if spec.standingPageRank {
		var v jobView
		if st, err := d.post("/v1/jobs", standingReq, &v); err != nil || (st != http.StatusAccepted && st != http.StatusOK) {
			d.stop()
			return nil, 0, fmt.Errorf("standing registration: status %d: %v", st, err)
		}
		if v.JobID != "" {
			if v, err = d.await(v.JobID, 60*time.Second); err != nil || v.Status != server.StatusDone {
				d.stop()
				return nil, 0, fmt.Errorf("standing registration job: %s %v", v.Status, err)
			}
		}
	}
	return d, time.Since(start).Seconds(), nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // the pass is over; shutdown errors change no result
	d.client.CloseIdleConnections()
}

// standingReq reads (or, at set-up, registers) the standing pagerank
// query; top_k 100 gives the gate enough ranks to compare.
var standingReq = []byte(`{"algo":"pagerank","standing":true,"top_k":100}`)

func (d *daemon) get(path string, v any) (int, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return 0, err
	}
	return decode(resp, v)
}

func (d *daemon) post(path string, body []byte, v any) (int, error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return decode(resp, v)
}

// decode reads the whole body (so the connection is reused) and, for a
// 2xx answer, unmarshals it into v when v is not nil.
func decode(resp *http.Response, v any) (int, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.Unmarshal(b, v)
	}
	return resp.StatusCode, nil
}

// jobView mirrors the daemon's job responses.
type jobView struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Repairing bool            `json:"repairing"`
	Epoch     *uint64         `json:"epoch"`
	QueuedMS  int64           `json:"queued_ms"`
	RunMS     int64           `json:"run_ms"`
	Result    json.RawMessage `json:"result"`
}

// await polls a job until it is terminal or the timeout passes.
func (d *daemon) await(id string, timeout time.Duration) (jobView, error) {
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		st, err := d.get("/v1/jobs/"+id, &v)
		if err != nil {
			return v, err
		}
		if st != http.StatusOK {
			return v, fmt.Errorf("poll %s: status %d", id, st)
		}
		if v.Status != server.StatusQueued && v.Status != server.StatusRunning {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, errPollTimeout
		}
		time.Sleep(time.Millisecond)
	}
}

var errPollTimeout = errors.New("poll timeout")

// metrics reads the daemon's /metrics document.
func (d *daemon) metrics() (obs.Snapshot, error) {
	var s obs.Snapshot
	st, err := d.get("/metrics", &s)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", st)
	}
	return s, err
}

// graphInfo is the GET /v1/graph summary.
type graphInfo struct {
	LiveArcs int    `json:"live_arcs"`
	Epoch    uint64 `json:"epoch"`
}

// batchGen is one client's seeded stream of 64-op batches: inserts of
// random vertex pairs, plus, once the client has history, deletes of
// edges it inserted earlier, so deletes are effective. No batch touches
// one edge twice: ops within a batch may commit in any order.
type batchGen struct {
	rng  *rand.Rand
	n    int
	mine []uint64 // this client's inserts, oldest first from head
	head int
	keys []uint64
}

func newBatchGen(seed int64, n int) *batchGen {
	return &batchGen{rng: rand.New(rand.NewSource(seed)), n: n}
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func (b *batchGen) taken(k uint64) bool {
	for _, x := range b.keys {
		if x == k {
			return true
		}
	}
	return false
}

func (b *batchGen) next() []tufast.StreamOp {
	ops := make([]tufast.StreamOp, 0, batchOps)
	b.keys = b.keys[:0]
	if len(b.mine)-b.head >= deleteLag {
		for len(ops) < deletesPerBatch {
			k := b.mine[b.head]
			b.head++
			if b.taken(k) {
				continue
			}
			b.keys = append(b.keys, k)
			ops = append(ops, tufast.StreamOp{U: uint32(k >> 32), V: uint32(k), Del: true})
		}
		if b.head > len(b.mine)/2 {
			b.mine = append(b.mine[:0], b.mine[b.head:]...)
			b.head = 0
		}
	}
	for len(ops) < batchOps {
		u, v := uint32(b.rng.Intn(b.n)), uint32(b.rng.Intn(b.n))
		k := edgeKey(u, v)
		if u == v || b.taken(k) {
			continue
		}
		b.keys = append(b.keys, k)
		b.mine = append(b.mine, k)
		ops = append(ops, tufast.StreamOp{U: u, V: v})
	}
	return ops
}

// encodeBatch renders the POST /v1/edges body.
func encodeBatch(buf []byte, ops []tufast.StreamOp) []byte {
	buf = append(buf[:0], `{"ops":[`...)
	for i, op := range ops {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"u":`...)
		buf = strconv.AppendUint(buf, uint64(op.U), 10)
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendUint(buf, uint64(op.V), 10)
		if op.Del {
			buf = append(buf, `,"del":true`...)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// batchAck is the POST /v1/edges answer.
type batchAck struct {
	Applied  int    `json:"applied"`
	Inserted int    `json:"inserted"`
	Removed  int    `json:"removed"`
	NoOps    int    `json:"noops"`
	Epoch    uint64 `json:"epoch"`
}

// acked is one acknowledged batch, kept for the oracle.
type acked struct {
	epoch     uint64
	effective bool
	ops       []tufast.StreamOp
}

// replayOracle returns the live arc count the ReplayEdges oracle gives
// for base plus the acknowledged batches in epoch order. A batch that
// changed nothing reports the epoch it observed, so it sorts after the
// effective batch that published that epoch.
func replayOracle(base *tufast.Graph, batches []acked) int {
	sortAcked(batches)
	st := &dyngraph.Stream{N: base.NumVertices(), Undirected: true}
	for u := 0; u < base.NumVertices(); u++ {
		for _, v := range base.Neighbors(uint32(u)) {
			if uint32(u) < v {
				st.Base = append(st.Base, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	var t uint64
	for _, b := range batches {
		for _, op := range b.ops {
			t++
			st.Ops = append(st.Ops, dyngraph.Op{Time: t, U: op.U, V: op.V, Del: op.Del})
		}
	}
	return 2 * len(st.ReplayEdges())
}

func sortAcked(b []acked) {
	sort.Slice(b, func(i, j int) bool {
		if b[i].epoch != b[j].epoch {
			return b[i].epoch < b[j].epoch
		}
		return b[i].effective && !b[j].effective
	})
}

// ticker samples f at each slice boundary of the window so a counter
// the daemon keeps can be reported as per-slice rates.
type ticker struct {
	stop chan struct{}
	wg   sync.WaitGroup
	vals []float64 // written by the sampler only; read after it exits
}

func sampleEvery(every time.Duration, f func() float64) *ticker {
	t := &ticker{stop: make(chan struct{}), vals: []float64{f()}}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
				t.vals = append(t.vals, f())
			}
		}
	}()
	return t
}

// rates stops sampling and returns the per-interval rates.
func (t *ticker) rates(every time.Duration) []float64 {
	close(t.stop)
	t.wg.Wait()
	var out []float64
	for i := 1; i < len(t.vals); i++ {
		out = append(out, (t.vals[i]-t.vals[i-1])/every.Seconds())
	}
	return out
}

// traceFile names where a traced phase writes its spans: beside the
// run records, outside the child's own scratch directory.
func traceFile(e env, tag string) string {
	return filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", tag, e.seed))
}
