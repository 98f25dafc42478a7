package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/usaas"
)

// tinyOptions shrinks every input so a run takes seconds.
func tinyOptions(workload string, trace bool) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 3
	o.seconds = time.Second
	o.trace = trace
	o.preloadCalls = 600
	o.poolCalls = 100
	o.roundWrites = 200
	o.minRounds = 1
	o.setups = 1
	return o
}

// lastLine runs one tiny workload and decodes its result line.
func lastLine(t *testing.T, o options) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if _, err := run(o, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", o.workload, err, out.String())
	}
	return res, out.String()
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range bf.EndToEnd {
		if i < len(endToEnd) && (bf.EndToEnd[i].Name != endToEnd[i].name || bf.EndToEnd[i].Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, program %v", i, bf.EndToEnd[i], endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i := range bf.PerLayer {
		if i < len(layerMetrics) && (bf.PerLayer[i].Name != layerMetrics[i].name || bf.PerLayer[i].Unit != layerMetrics[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, program %v", i, bf.PerLayer[i], layerMetrics[i])
		}
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, wl := range []string{"ingest", "query"} {
		for _, trace := range []bool{false, true} {
			res, out := lastLine(t, tinyOptions(wl, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := map[string]string{}
			if trace {
				for _, m := range layerMetrics {
					want[m.name] = m.unit
				}
				if !strings.Contains(out, "budget "+wl+"/ingest") {
					t.Errorf("%s: traced run printed no budget table\n%s", wl, out)
				}
			} else {
				for _, m := range endToEnd {
					want[m.name] = m.unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, got.Value)
				}
				if !strings.Contains(out, name) {
					t.Errorf("%s: metric %s not printed by name", wl, name)
				}
			}
		}
	}
}

func TestUntracedRunRecordsNoSpans(t *testing.T) {
	b, err := runBench(tinyOptions("ingest", false), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if b.env.tr != nil {
		t.Fatal("untraced run has a tracer")
	}
	b, err = runBench(tinyOptions("ingest", true), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.env.tr.spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

func TestShortReferenceTripsGate(t *testing.T) {
	b, err := runBench(tinyOptions("query", false), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.lastWrites) == 0 {
		t.Fatal("no writes acked")
	}
	if err := b.checkReference(b.lastReport, b.lastWrites[:len(b.lastWrites)-1]); err == nil {
		t.Fatal("a reference fed one batch fewer passed the report gate")
	}
}

// The gauge cross-check keys on the effective fsync policy: without the
// group-commit scheduler there are no commit gauges, and that passes.
func TestGaugeCheckKeysOnFsyncPolicy(t *testing.T) {
	for _, policy := range []durable.FsyncPolicy{durable.FsyncOff, durable.FsyncInterval, durable.FsyncPerBatch} {
		opts := durability(t.TempDir())
		opts.Fsync = policy
		d, err := usaas.OpenDurableStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := d.AddSessionsBatch(string(rune('a'+i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkGauges(opts, d, 3, true); err != nil {
			t.Errorf("fsync=%s: %v", policy, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// pct's weights sum to one and centre on the quantile: on the sample
// 1..n it lands within one rank of n·q, and a symmetric sample's median is
// its middle value.
func TestPctHarrellDavis(t *testing.T) {
	for _, n := range []int{1, 2, 7, 400, 20000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[n-1-i] = time.Duration(i + 1) // descending: pct sorts a copy
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, want := float64(pct(ds, q)), float64(n)*q+0.5
			if math.Abs(got-want) > 1 {
				t.Errorf("n=%d q=%v: pct %v, want within 1 of %v", n, q, got, want)
			}
		}
		if n%2 == 1 {
			if got := pct(ds, 0.5); got != time.Duration((n+1)/2) {
				t.Errorf("n=%d: median %v, want %d", n, got, (n+1)/2)
			}
		}
	}
}
