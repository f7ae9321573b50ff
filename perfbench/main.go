// Command perfbench is tufast's benchmark: one command that drives a
// named workload against the TM runtime or an in-process tufastd,
// checks that the outputs are correct, and prints every metric by name
// and unit. Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload serve-write --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer breakdown of a traced run. The last line of
// standard output is the result object; the line before it records the
// seed, the host and the sample counts behind every timing.
//
// Every measured pass, every set-up repetition and every layer replay
// runs in a child process of its own, so each starts from a fresh heap:
// set-up is timed cold and the arena a daemon preallocates never has
// to be re-zeroed by the Go runtime.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tm_txn_per_s", "1/s"},
	{"write_ops_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"job_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// modes are the paper's Figure 15 routing classes; "O+" is spelled
// Oplus in metric names.
var modes = []struct{ name, obs string }{
	{"H", "H"}, {"O", "O"}, {"Oplus", "O+"}, {"O2L", "O2L"}, {"L", "L"},
}

// perLayer lists the metrics a traced run reports, on every workload;
// a layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, m := range modes {
		d = append(d, metricDef{"core.commits." + m.name, "count"})
	}
	for _, m := range modes {
		d = append(d, metricDef{"core.aborts." + m.name, "count"})
	}
	d = append(d,
		metricDef{"core.commit_frac", "frac"},
		metricDef{"core.h_to_o", "count"},
		metricDef{"core.o_to_l", "count"},
		metricDef{"core.period", "ops"},
	)
	for _, m := range modes {
		d = append(d, metricDef{"core.commit_p50_us." + m.name, "us"})
	}
	return append(d,
		metricDef{"htm.capacity_aborts", "count"},
		metricDef{"htm.conflict_aborts", "count"},
		metricDef{"tm.txn_us.h", "us"},
		metricDef{"tm.txn_us.o", "us"},
		metricDef{"tm.txn_us.l", "us"},
		metricDef{"server.batch_p50_us", "us"},
		metricDef{"server.batch_p99_us", "us"},
		metricDef{"server.http_p50_us", "us"},
		metricDef{"server.rejected", "count"},
		metricDef{"jobs.queued_p50_ms", "ms"},
		metricDef{"jobs.run_p50_ms", "ms"},
		metricDef{"jobs.cache_hit_frac", "frac"},
		metricDef{"standing.repair_lag_p50_ms", "ms"},
		metricDef{"standing.repairs", "count"},
		metricDef{"standing.hook_us", "us"},
		metricDef{"standing.stabilize_ms", "ms"},
		metricDef{"dyngraph.apply_us", "us"},
		metricDef{"dyngraph.compact_ms", "ms"},
		metricDef{"dyngraph.gc_ms", "ms"},
		metricDef{"dyngraph.arena_words_per_op", "words/op"},
		metricDef{"dyngraph.noop_frac", "frac"},
		metricDef{"wal.append_us", "us"},
		metricDef{"wal.fsyncs_per_batch", "fsyncs/batch"},
		metricDef{"wal.bytes_per_op", "bytes/op"},
		metricDef{"wal.checkpoint_ms", "ms"},
		metricDef{"algorithms.cc_ms", "ms"},
		metricDef{"algorithms.sssp_ms", "ms"},
		metricDef{"client.late_p99_ms", "ms"},
		metricDef{"fail_frac", "frac"},
		metricDef{"trace.unattributed_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// passResult is what one child process reports to the parent.
type passResult struct {
	SetupS   float64            `json:"setup_s"`
	Correct  bool               `json:"correct"`
	Gate     string             `json:"gate"`
	Outcomes outcomes           `json:"outcomes"`
	Metrics  map[string]float64 `json:"metrics"`
	Timings  map[string]timing  `json:"timings,omitempty"`
}

// env is one child's view of the run.
type env struct {
	seed    int64
	seconds int
	dir     string // scratch directory owned by this child
}

func (e env) window() time.Duration { return time.Duration(e.seconds) * time.Second }

// workload is one named traffic mix.
type workload struct {
	// setup builds the system under test once and tears it down,
	// returning the seconds until the first request could be served.
	setup func(env) (float64, error)
	// pass sets up, measures for the run's seconds and checks outputs.
	pass func(e env, traced bool) (passResult, error)
	// replay feeds the seeded stream through the layers' public
	// functions with spans around each call; nil when the traced pass
	// already times every layer the workload exercises.
	replay func(env) (passResult, error)
	// primary names the end-to-end metric the tracing overhead is
	// judged on.
	primary string
}

var workloads = map[string]workload{
	"tm-rw":       {setup: tmrwSetup, pass: tmrwPass, primary: "tm_txn_per_s"},
	"serve-write": {setup: writeSetup, pass: writePass, replay: writeReplay, primary: "write_ops_per_s"},
	"serve-mixed": {setup: mixedSetup, pass: mixedPass, replay: mixedReplay, primary: "job_per_s"},
}

// setupReps is how many cold set-ups a run times; setup_s is their
// median.
const setupReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: tm-rw | serve-write | serve-mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
		phase   = flag.String("phase", "", "internal: run one child phase (setup|pass|traced|replay)")
		dir     = flag.String("dir", "", "internal: child scratch directory")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if *phase != "" {
		os.Exit(child(w, *phase, env{seed: *seed, seconds: *seconds, dir: *dir}))
	}
	// An interrupt cancels the running child (CommandContext kills it)
	// and the parent exits once it has been reaped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := parent(ctx, *name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// child runs one phase and prints its passResult as the last line.
func child(w workload, phase string, e env) int {
	var (
		r   passResult
		err error
	)
	switch phase {
	case "setup":
		r.SetupS, err = w.setup(e)
		r.Correct = err == nil
	case "pass":
		r, err = w.pass(e, false)
	case "traced":
		r, err = w.pass(e, true)
	case "replay":
		if w.replay == nil {
			err = errors.New("workload has no replay")
		} else {
			r, err = w.replay(e)
		}
	default:
		err = fmt.Errorf("unknown phase %q", phase)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", phase, err)
		return 1
	}
	buf, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(buf))
	return 0
}

// runChild runs one phase in a fresh process and waits for it.
func runChild(ctx context.Context, root, name, phase string, seed int64, seconds int) (passResult, error) {
	var r passResult
	dir, err := os.MkdirTemp(root, phase+"-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	// A pass is its measured window plus set-up, the correctness gate
	// and shutdown; none of those comes near this limit in a healthy run.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(seconds)*time.Second+75*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--phase", phase, "--dir", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s phase: %w", phase, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("%s phase: bad result %q: %w", phase, last, err)
	}
	return r, nil
}

// parent orchestrates the child phases of one run and prints the
// result object.
func parent(ctx context.Context, name string, w workload, seed int64, seconds int, traced bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root := filepath.Join(wd, ".bench_build", "runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	var (
		passes  []passResult
		metrics = map[string]float64{}
		timings = map[string]timing{}
		defs    = endToEnd
	)
	if !traced {
		var setups []float64
		for i := 0; i < setupReps-1; i++ {
			r, err := runChild(ctx, root, name, "setup", seed, seconds)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
		r, err := runChild(ctx, root, name, "pass", seed, seconds)
		if err != nil {
			return err
		}
		passes = append(passes, r)
		setups = append(setups, r.SetupS)
		for k, v := range r.Metrics {
			metrics[k] = v
		}
		for k, v := range r.Timings {
			timings[k] = v
		}
		metrics["setup_s"] = median(setups)
	} else {
		defs = perLayer
		for _, d := range perLayer {
			metrics[d.name] = 0
		}
		u, err := runChild(ctx, root, name, "pass", seed, seconds)
		if err != nil {
			return err
		}
		t, err := runChild(ctx, root, name, "traced", seed, seconds)
		if err != nil {
			return err
		}
		passes = append(passes, u, t)
		for k, v := range t.Metrics {
			metrics[k] = v
		}
		for k, v := range t.Timings {
			timings[k] = v
		}
		if base := u.Metrics[w.primary]; base > 0 {
			metrics["trace.overhead_frac"] = 1 - t.Metrics[w.primary]/base
		}
		if w.replay != nil {
			rp, err := runChild(ctx, root, name, "replay", seed, seconds)
			if err != nil {
				return err
			}
			passes = append(passes, rp)
			for k, v := range rp.Metrics {
				metrics[k] = v
			}
			for k, v := range rp.Timings {
				timings["replay."+k] = v
			}
		}
	}

	correct := true
	var total outcomes
	var gates []string
	for _, p := range passes {
		correct = correct && p.Correct
		total.add(p.Outcomes)
		gates = append(gates, p.Gate)
	}
	if traced {
		metrics["fail_frac"] = total.failFrac()
	}
	attempted := total.attempted()
	if attempted == 0 {
		return fmt.Errorf("workload %s attempted no operation", name)
	}

	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing from workload %s", d.name, name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	detail := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"host": hostFingerprint(), "gates": gates, "outcomes": total,
		"fail_frac": total.failFrac(), "timings": timings,
	}
	if err := saveDetail(root, name, seed, traced, detail, out); err != nil {
		return err
	}
	db, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(db))
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": total.failed(), "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// saveDetail keeps each run's full record under .bench_build/runs.
func saveDetail(root, name string, seed int64, traced bool, detail map[string]any, metrics map[string]map[string]any) error {
	t := 0
	if traced {
		t = 1
	}
	buf, err := json.MarshalIndent(map[string]any{"detail": detail, "metrics": metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t)), buf, 0o644)
}

// hostFingerprint records what the numbers were measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// heapPeak samples the Go runtime's live heap (as of each GC cycle)
// while a window runs, and once more after a forced collection when it
// ends: without that last reading the peak would depend on whether a
// GC cycle happened to finish inside the window. The daemon's arena is
// one live object sized by its mutation budget. Resident-set peaks were
// not repeatable run to run on the same inputs, so the benchmark
// reports heap bytes instead.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
		}
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			read()
			select {
			case <-h.stop:
				runtime.GC()
				read()
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// mb stops sampling and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	return <-h.done
}
