// Command usaasbench is the repository's benchmark: it runs one named
// workload against usaasd's server, embedded in-process on loopback with
// usaasd's flag defaults, checks the answers, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash usaasbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - ingest: fixed-work rounds. A fresh node ingests the same batches
//     from GOMAXPROCS closed-loop writers; the data dir is then copied and
//     reopened (recovery), and the copy must answer every read exactly as
//     the live node does.
//   - query: a preloaded node; one closed-loop operator cycles a seeded
//     read mix beside one open-loop writer at a low fixed rate.
//   - cluster: a coordinator over 2 day-hash shards, same preload; one
//     full-speed writer beside the same operator. BENCHMARK.json does not
//     list it: its report gate fails (the coordinator's merged report
//     differs from a single node fed the same batches, and from its own
//     recovered copy when reads ran beside the writes), so every run
//     exits nonzero until the cluster is fixed.
//
// With --trace 0 the run records no spans and reports the end-to-end
// metrics. With --trace 1 every other operation is traced, and the run
// reports the per-layer metrics plus a budget table.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	// Input sizes. The defaults define the benchmark; tests shrink them.
	preloadCalls int // conference calls in the query/cluster preload
	poolCalls    int // conference calls behind the write pool
	roundWrites  int // batches per ingest round
	minRounds    int // ingest rounds at least
	setups       int // set-ups (and recoveries) per query/cluster run
	writers      int // ingest writers
}

// workloads names the benchmark's workloads.
var workloads = []string{"ingest", "query", "cluster"}

func defaultOptions() options {
	return options{
		preloadCalls: 8000,
		poolCalls:    2000,
		roundWrites:  1500,
		minRounds:    3,
		setups:       15,
		writers:      runtime.GOMAXPROCS(0),
	}
}

func main() {
	o := defaultOptions()
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and the budget table")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "usaasbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_batches_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"report_p50_ms", "ms"},
	{"report_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"recovery_s", "s"},
	{"heap_mib", "MiB"},
	{"disk_bytes_per_wire_byte", "ratio"},
}

// run executes one workload and writes the report; ok is false when a
// correctness gate failed (the result line is still printed).
func run(o options, out io.Writer) (ok bool, err error) {
	if !slices.Contains(workloads, o.workload) {
		return false, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds <= 0 {
		return false, errors.New("--seconds must be positive")
	}
	work, err := os.MkdirTemp(".", ".usaasbench-work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	b, err := runBench(o, work)
	if err != nil {
		return false, err
	}
	return b.report(out)
}

// runBench generates the inputs and runs the workload's timed phase and
// gates, returning the state the report is computed from.
func runBench(o options, work string) (*bench, error) {
	preload := o.preloadCalls
	if o.workload == "ingest" {
		preload = 0
	}
	in, err := makeInputs(o.seed, preload, o.poolCalls)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	b := &bench{opts: o, in: in, env: newServerEnv(tr), c: newClient(), work: work, log: newOpLog()}
	defer b.c.hc.CloseIdleConnections()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapBase = ms.HeapAlloc
	if o.workload == "ingest" {
		err = b.runIngest()
	} else {
		err = b.runServing()
	}
	return b, err
}

// metrics computes the end-to-end metrics.
func (b *bench) metrics() map[string]float64 {
	rep := b.log.durations(classReport, true, true)
	rd := b.log.durations(classRead, true, true)
	return map[string]float64{
		"setup_s":                  median(b.setup),
		"ingest_batches_per_s":     median(b.rates),
		"ingest_p50_ms":            median(b.ingestP50),
		"ingest_p99_ms":            median(b.ingestP99),
		"report_p50_ms":            msf(pct(rep, 0.50)),
		"report_p90_ms":            msf(pct(rep, 0.90)),
		"read_p50_ms":              msf(pct(rd, 0.50)),
		"read_p90_ms":              msf(pct(rd, 0.90)),
		"recovery_s":               median(b.recovery),
		"heap_mib":                 median(b.heap),
		"disk_bytes_per_wire_byte": median(b.disk),
	}
}

// report prints the human-readable lines, then the JSON result line.
func (b *bench) report(out io.Writer) (bool, error) {
	w := bufio.NewWriter(out)
	fp := fingerprint(b.work, b.opts.seed)
	env, err := json.Marshal(fp)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "env %s\n", env)
	res := result{
		Correct:   b.log.failed == 0,
		Attempted: b.log.attempted,
		Failed:    b.log.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed\n", b.opts.workload, b.opts.seed, res.Attempted, res.Failed)
	for _, e := range b.log.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	counts := fmt.Sprintf("samples: %d setups, %d ingest, %d report, %d read, %d recoveries",
		len(b.setup), len(b.log.durations(classIngest, true, true)), len(b.log.durations(classReport, true, true)),
		len(b.log.durations(classRead, true, true)), len(b.recovery))
	fmt.Fprintln(w, counts)
	fmt.Fprintf(w, "per-phase ingest batches/s: %.0f\n", b.rates)
	fmt.Fprintf(w, "per-phase ingest p50 ms: %.2f\n", b.ingestP50)
	fmt.Fprintf(w, "per-phase ingest p99 ms: %.2f\n", b.ingestP99)
	if b.opts.trace {
		v, err := b.layerValues()
		if err != nil {
			return false, err
		}
		for _, m := range layerMetricsFor(b.opts.workload) {
			fmt.Fprintf(w, "%-34s %14.4f %-6s moves %s on %s (%s)\n", m.name, v[m.name], m.unit, m.moves, m.on, m.source)
			res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		}
		b.printBudget(w, v)
	} else {
		v := b.metrics()
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-26s %14.4f %s\n", m.name, v[m.name], m.unit)
			res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		}
		// Printed, not in the result line: it is 0 on a good run, and the
		// result line carries it as attempted and failed.
		fmt.Fprintf(w, "%-26s %14.4f ratio\n", "error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, w.Flush()
}

// envFingerprint records what a baseline must match to be compared.
type envFingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	DataDirFS  string `json:"data_dir_fs"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(dir string, seed uint64) envFingerprint {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return envFingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(abs),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
