// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks the outputs, and prints every
// metric of BENCHMARK.json by name with its unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing; with --trace 1 they are the per-layer ones, from a traced run
// that also re-measures the load untraced to report the tracing overhead.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the tree it sits in:
//
//	bash perfbench/run.sh --workload skeap2-burst --seed 1 --seconds 20 --trace 0
//
// The network workloads assemble dpqd-equivalent clusters inside this
// process (cluster.go) and drive them over loopback TCP with a clientproto
// client (client.go); sim-seap drives the simulator directly. NOTES.md
// records why each workload exists and the known defects they show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one run's settings.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dpqd     flagDefaults
	outDir   string // .bench_build: span files
	workDir  string // per-run scratch (WAL directories), removed at exit
}

// result collects one run's verdict and metrics.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	infos     []string
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) info(format string, args ...any) {
	r.infos = append(r.infos, fmt.Sprintf(format, args...))
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(e *env, res *result) error{
	"skeap2-burst":      func(e *env, res *result) error { return runNetTraced(burst(e), e, res) },
	"skeap2-wal-steady": func(e *env, res *result) error { return runNetTraced(walSteady(e), e, res) },
	"relax1-wide":       func(e *env, res *result) error { return runNetTraced(relaxWide(e), e, res) },
	"sim-seap":          runSimTraced,
}

// closedWindow is dpqload's default -window: outstanding requests per
// connection in a closed loop.
const closedWindow = 128

func burst(e *env) netWorkload {
	return netWorkload{protocol: "skeap", window: closedWindow, cycle: 5000, rate: burstRate, clusters: clustersPerRun,
		cluster: clusterSpec{procs: 2, hosts: e.dpqd.int("hosts")}}
}

// The nominal rates (heap ops/s, inserts and deletes together) size each
// workload's fixed operation count per cluster: about what the 2-core
// development host completes.
const (
	burstRate     = 22000
	walSteadyRate = 20000
	relaxWideRate = 17500
)

// walWindow is skeap2-wal-steady's window per connection. Every request
// waits for its WAL record's fsync, and the sync loop of each daemon
// fsyncs back to back while requests arrive, so the workload follows the
// shared virtual disk. At 512 outstanding per connection a group commit
// covers enough records that the protocol, not the disk, sets the pace:
// run to run, interleaved, its spreads were 0.04–0.15 where window 128
// gave 0.21–0.32 (and 1024 0.13–0.20, with the p99 doubled).
const walWindow = 512

// walClusters is skeap2-wal-steady's measured clusters per run, fewer than
// the others': each set-up waits out the 2 s cold-start window (see
// NOTES.md), and five of them made its runs twice --seconds long.
const walClusters = 3

func walSteady(e *env) netWorkload {
	return netWorkload{protocol: "skeap", window: walWindow, prefill: 4000, rate: walSteadyRate, clusters: walClusters,
		cluster: clusterSpec{procs: 2, hosts: e.dpqd.int("hosts"), walDir: "wal"}}
}

// relaxWide runs 32 hosts, not 128: at 128 hosts garbage collection took
// 13–17% of the CPU and the run-to-run medians followed the host's speed
// by up to 26%. With fewer outstanding requests the engine is paced by its
// tick, but its 1 ms latencies make the p99 swing with every stall the
// host imposes (spread 0.4 at 12 per connection); at 64 per connection
// the p99 is set by queueing, as in skeap2-burst.
func relaxWide(e *env) netWorkload {
	return netWorkload{protocol: "relax", window: 64, prefill: 4000, rate: relaxWideRate, clusters: clustersPerRun,
		cluster: clusterSpec{procs: 1, hosts: 32, relax: true}}
}

// runNetTraced runs a network workload; a traced run first measures half
// the time untraced, then half traced, and reports the difference.
func runNetTraced(w netWorkload, e *env, res *result) error {
	if !e.traced {
		return runNet(w, e, res)
	}
	plain := *e
	plain.traced = false
	plain.seconds = e.seconds / 2
	base := newResult()
	if err := runNet(w, &plain, base); err != nil {
		return err
	}
	mergeVerdict(res, base, "untraced pass")
	traced := *e
	traced.seconds = e.seconds - plain.seconds
	if err := runNet(w, &traced, res); err != nil {
		return err
	}
	overhead(res, base)
	return nil
}

func runSimTraced(e *env, res *result) error {
	if !e.traced {
		runSim(e, res, false, 2)
		return nil
	}
	plain := *e
	plain.seconds = e.seconds / 2
	base := newResult()
	runSim(&plain, base, false, 2)
	mergeVerdict(res, base, "untraced pass")
	traced := *e
	traced.seconds = e.seconds - plain.seconds
	runSim(&traced, res, true, 1)
	// Engine costs come from the untraced pass: the timing wrappers
	// inflate every activation.
	for _, k := range []string{"sim.ns_per_activation", "sim.allocs_per_round", "sim_ops_s"} {
		res.layer[k] = base.layer[k]
	}
	simSpeedup(e, res)
	overhead(res, base)
	return nil
}

func mergeVerdict(dst, src *result, label string) {
	dst.attempted += src.attempted
	dst.failed += src.failed
	for _, p := range src.problems {
		dst.problems = append(dst.problems, label+": "+p)
	}
	for _, i := range src.infos {
		dst.infos = append(dst.infos, label+": "+i)
	}
}

// overhead reports how much tracing slowed the traced pass against the
// untraced one, as fractions of the untraced figures.
func overhead(traced, plain *result) {
	ops := func(r *result) float64 { return r.e2e["insert_ops_s"] + r.e2e["delete_ops_s"] }
	traced.layer["trace.overhead_ops_frac"] = ratio(ops(plain), ops(traced)) - 1
	traced.layer["trace.overhead_insert_p50_frac"] = ratio(traced.e2e["insert_p50_ms"], plain.e2e["insert_p50_ms"]) - 1
	traced.layer["trace.overhead_delete_p50_frac"] = ratio(traced.e2e["delete_p50_ms"], plain.e2e["delete_p50_ms"]) - 1
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(2)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal("run from the repository root: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	listed := false
	for _, w := range bf.Workloads {
		listed = listed || w.Name == *workload
	}
	run, ok := workloads[*workload]
	if !ok || !listed {
		fatal("unknown workload %q", *workload)
	}
	dpqd, err := loadFlagDefaults(dpqdMain)
	if err != nil {
		fatal("%v", err)
	}
	outDir, err := filepath.Abs(".bench_build")
	if err != nil {
		fatal("%v", err)
	}
	workDir, err := os.MkdirTemp(mustDir(outDir), "run-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(workDir)
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, dpqd: dpqd, outDir: outDir, workDir: workDir}

	printRecord(e, workDir)
	res := newResult()
	if err := run(e, res); err != nil {
		os.RemoveAll(workDir)
		fatal("%s: %v", *workload, err)
	}
	res.layer["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	specs := bf.EndToEnd
	vals := res.e2e
	if e.traced {
		specs, vals = bf.PerLayer, res.layer
	}
	for _, i := range res.infos {
		fmt.Println("# " + i)
	}
	for i, p := range res.problems {
		if i == 20 {
			fmt.Printf("FAIL ... %d more\n", len(res.problems)-20)
			break
		}
		fmt.Println("FAIL " + p)
	}
	printTable(bf.EndToEnd, res.e2e, res.samples, "end-to-end")
	if e.traced {
		printTable(bf.PerLayer, res.layer, nil, "per-layer")
	} else {
		printTable(bf.PerLayer, res.layer, nil, "per-layer (untraced subset)")
	}

	out := map[string]any{}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok && !e.traced {
			fatal("%s produced no %s", *workload, m.Name)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func mustDir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	return d
}

// printTable prints the metrics a run produced, by name with unit.
func printTable(specs []metricSpec, vals map[string]float64, samples map[string]int, title string) {
	fmt.Printf("# %s metrics\n", title)
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		n := ""
		for kind, c := range samples {
			if strings.HasPrefix(m.Name, kind+"_p") {
				n = fmt.Sprintf("  (n=%d)", c)
			}
		}
		fmt.Printf("#   %-34s %14.6g %-6s%s\n", m.Name, v, m.Unit, n)
	}
}

// printRecord prints the run record: what ran, where, and with which
// settings.
func printRecord(e *env, workDir string) {
	rec := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds.Seconds(), "trace": e.traced,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": commit(), "wal_fs": filesystem(workDir),
		"skeap2_hosts": e.dpqd.int("hosts"), "relax1_hosts": relaxWide(e).cluster.hosts,
		"window":   closedWindow,
		"sim_seap": fmt.Sprintf("n=%d, %d batches per pass, %.0f%% inserts", seapHosts, seapBatches, 100*seapInsFrac),
	}
	keys := make([]string, 0, len(e.dpqd))
	for k := range e.dpqd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	flags := map[string]string{}
	for _, k := range keys {
		flags[k] = fmt.Sprint(e.dpqd[k])
	}
	rec["dpqd_flag_defaults"] = flags
	b, _ := json.Marshal(rec) // maps of strings and numbers always encode
	fmt.Println("# record " + string(b))
}

// commit names the source tree from .git in the working directory when it
// is a git checkout, otherwise "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// filesystem names the type of the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlay", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
