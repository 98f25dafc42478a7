package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"usersignals/internal/cluster"
	"usersignals/internal/colstore"
	"usersignals/internal/durable"
	"usersignals/internal/nlp"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/usaas"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads it should move it
// on: the layer → end-to-end mapping a change to one layer is judged by.
type layerMetric struct {
	name, unit, source, moves, on string
}

var layerMetrics = []layerMetric{
	{"telemetry.decode_us", "us", "telemetry.ParseJSON per 20-record batch", "ingest_p50_ms, ingest_batches_per_s; setup_s", "ingest; query, cluster"},
	{"telemetry.decode_mb_per_s", "MB/s", "telemetry.ParseJSON over the write pool", "ingest_p50_ms, ingest_batches_per_s; setup_s", "ingest; query, cluster"},
	{"usaas.apply_us", "us", "Store.AddSessionsBatch on an in-memory Store", "ingest_batches_per_s", "ingest"},
	{"usaas.posts_apply_us", "us", "Store.AddPostsBatch on an in-memory Store", "ingest_batches_per_s", "ingest"},
	{"usaas.handler_ingest_us", "us", "Server.Handler span on ingest", "ingest_p50_ms", "ingest"},
	{"usaas.http_residual_us", "us", "client span minus handler span on ingest", "ingest_p50_ms", "ingest"},
	{"durable.wal_append_us", "us", "durable.OpenWAL + Append, fsync=batch", "ingest_p50_ms, ingest_p99_ms", "ingest"},
	{"durable.fsync_mean_us", "us", "DurableStore.CommitMetrics", "ingest_p50_ms, ingest_p99_ms", "ingest"},
	{"durable.fsyncs_per_batch", "ratio", "CommitMetrics fsyncs / acked batches", "ingest_batches_per_s", "ingest"},
	{"durable.mean_group", "count", "CommitMetrics batches / groups", "ingest_batches_per_s", "ingest"},
	{"durable.replay_s", "s", "durable.Replay, no-op callback, on the copied dir", "recovery_s", "ingest"},
	{"colstore.append_us", "us", "colstore.Store.Append per 20-record batch", "ingest_batches_per_s, heap_mib", "ingest"},
	{"colstore.bytes_per_record", "B", "colstore Stats after SealTail", "heap_mib", "ingest"},
	{"colstore.sweep_us", "us", "Store.DoseResponseSpec with StudyFilterSpec", "none (no endpoint or CLI reads the mirror)", "no workload"},
	{"usaas.report_build_ms", "ms", "usaas.BuildReport", "report_p50_ms", "query"},
	{"usaas.report_encode_us", "us", "json.Marshal of the report", "report_p50_ms", "query"},
	{"usaas.handler_report_ms", "ms", "Server.Handler span on /v1/report", "report_p50_ms", "query"},
	{"usaas.dose_view_us", "us", "Store.DoseResponseSeries on a materialized view", "read_p50_ms", "query"},
	{"usaas.cache_hit_ratio", "ratio", "Server.CacheMetrics hits / lookups", "report_p50_ms, read_p50_ms", "query"},
	{"usaas.cache_collapsed", "count", "Server.CacheMetrics collapsed", "report_p50_ms, read_p50_ms", "query"},
	{"social.token_build_ms", "ms", "Corpus.BuildTokens on a fresh corpus", "report_p50_ms", "query"},
	{"usaas.social_sweep_ms", "ms", "usaas.SweepCorpus with the report's options", "report_p50_ms", "query"},
	{"cluster.split_us", "us", "cluster.Map.SplitSessions per batch, 2 shards", "ingest_batches_per_s", "cluster"},
	{"cluster.empty_subbatch_ratio", "ratio", "empty sub-batches / sub-batches", "ingest_batches_per_s", "cluster"},
	{"loadgen.writer_late_p99_ms", "ms", "writers' lateness against their schedule: due time (query), previous ack (ingest)", "nothing (it shows the open-loop schedule held)", "query"},
}

// clusterLayerMetrics come from the coordinator's and shards' spans and
// counters, so only a cluster run has them. They are reported on the
// cluster workload only, which BENCHMARK.json does not list while its
// correctness gate fails.
var clusterLayerMetrics = []layerMetric{
	{"cluster.fanouts_per_ingest", "ratio", "shard ingest requests / coordinator ingests", "ingest_p50_ms", "cluster"},
	{"cluster.shard_ingest_us", "us", "shard Server.Handler span on ingest", "ingest_p50_ms", "cluster"},
	{"cluster.coord_ingest_self_us", "us", "Coordinator.Handler span minus its shard spans", "ingest_p50_ms", "cluster"},
	{"cluster.shard_partials_ms", "ms", "shard Server.Handler span on /v1/partials", "report_p50_ms, read_p50_ms", "cluster"},
	{"cluster.coord_report_self_ms", "ms", "Coordinator.Handler span on /v1/report minus its shard spans", "report_p50_ms", "cluster"},
	{"cluster.partial_merges_per_report", "ratio", "/v1/stats partial merges / operator reads", "report_p50_ms, read_p50_ms", "cluster"},
}

// layerMetricsFor lists the per-layer metrics a workload's traced run
// reports.
func layerMetricsFor(workload string) []layerMetric {
	if workload == "cluster" {
		return append(append([]layerMetric(nil), layerMetrics...), clusterLayerMetrics...)
	}
	return layerMetrics
}

// replayBatches caps how many pool batches the per-layer replays time.
const replayBatches = 400

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeN runs fn n times and returns the median duration.
func timeN(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return pct(ds, 0.5)
}

// layerValues computes every per-layer metric: replays of the run's own
// inputs through each layer's public functions, spans, and the counters
// the servers expose.
func (b *bench) layerValues() (map[string]float64, error) {
	v := map[string]float64{}
	pool := b.in.writes
	if len(pool) > replayBatches {
		pool = pool[:replayBatches]
	}

	// telemetry: decode each batch's NDJSON lines.
	var decode []time.Duration
	var decBytes int
	var decTotal time.Duration
	for _, bt := range pool {
		if bt.posts {
			continue
		}
		t0 := time.Now()
		for _, line := range strings.SplitAfter(string(bt.wire), "\n") {
			if len(line) <= 1 {
				continue
			}
			var r telemetry.SessionRecord
			if err := telemetry.ParseJSON([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("decode replay: %w", err)
			}
		}
		d := time.Since(t0)
		decode = append(decode, d)
		decTotal += d
		decBytes += len(bt.wire)
	}
	v["telemetry.decode_us"] = us(pct(decode, 0.5))
	v["telemetry.decode_mb_per_s"] = float64(decBytes) / 1e6 / decTotal.Seconds()

	// usaas apply and colstore append, batch by batch.
	st := &usaas.Store{}
	cs := colstore.New()
	m := cluster.Map{Version: 1, Shards: []cluster.Shard{{Name: "s0"}, {Name: "s1"}}}
	var apply, papply, cappend, split []time.Duration
	var groups, empty int
	for i, bt := range pool {
		id := fmt.Sprintf("replay-%d", i)
		t0 := time.Now()
		if bt.posts {
			if _, _, err := st.AddPostsBatch(id, bt.postRecs); err != nil {
				return nil, err
			}
			papply = append(papply, time.Since(t0))
			for _, g := range m.SplitPosts(bt.postRecs) {
				groups++
				if len(g) == 0 {
					empty++
				}
			}
			continue
		}
		if _, _, err := st.AddSessionsBatch(id, bt.sessions); err != nil {
			return nil, err
		}
		apply = append(apply, time.Since(t0))
		t0 = time.Now()
		if err := cs.Append(bt.sessions); err != nil {
			return nil, err
		}
		cappend = append(cappend, time.Since(t0))
		t0 = time.Now()
		parts := m.SplitSessions(bt.sessions)
		split = append(split, time.Since(t0))
		for _, g := range parts {
			groups++
			if len(g) == 0 {
				empty++
			}
		}
	}
	v["usaas.apply_us"] = us(pct(apply, 0.5))
	v["usaas.posts_apply_us"] = us(pct(papply, 0.5))
	v["colstore.append_us"] = us(pct(cappend, 0.5))
	cs.SealTail()
	cst := cs.Stats()
	v["colstore.bytes_per_record"] = float64(cst.OpenBytes+cst.SealedBytes+cst.DictBytes) / float64(cst.Records)
	v["cluster.split_us"] = us(pct(split, 0.5))
	v["cluster.empty_subbatch_ratio"] = float64(empty) / float64(groups)

	// durable: append every batch to a fresh WAL under fsync=batch.
	w, err := durable.OpenWAL(b.dir("wal-replay"), 0, durable.Options{Fsync: durable.FsyncPerBatch})
	if err != nil {
		return nil, err
	}
	var walApp []time.Duration
	for i, bt := range pool {
		typ := byte(1)
		if bt.posts {
			typ = 2
		}
		t0 := time.Now()
		if _, err := w.Append(durable.Record{Type: typ, BatchID: fmt.Sprintf("replay-%d", i), Payload: bt.wire}); err != nil {
			w.Close()
			return nil, err
		}
		walApp = append(walApp, time.Since(t0))
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	v["durable.wal_append_us"] = us(pct(walApp, 0.5))
	if b.commit.FsyncCount > 0 {
		v["durable.fsync_mean_us"] = float64(b.commit.FsyncTotalNs) / float64(b.commit.FsyncCount) / 1e3
	}
	if b.ackedWrites > 0 {
		v["durable.fsyncs_per_batch"] = float64(b.commit.FsyncCount) / float64(b.ackedWrites)
	}
	if b.commit.Groups > 0 {
		v["durable.mean_group"] = float64(b.commit.Batches) / float64(b.commit.Groups)
	}
	v["durable.replay_s"] = median(b.replay)

	// Query layers, on the gate's reference store (query, cluster) or,
	// for ingest, whose live stores are closed by now, on an in-memory
	// store holding what one round ingests.
	an := nlp.NewAnalyzer()
	qs := b.ref
	if qs == nil {
		round := make([]written, b.opts.roundWrites)
		for i := range round {
			round[i] = written{id: fmt.Sprintf("round-%d", i), b: b.in.writes[i%len(b.in.writes)]}
		}
		if qs, err = b.reference(round); err != nil {
			return nil, err
		}
	}
	opts := b.env.serverOptions()
	var rep usaas.OperatorReport
	v["usaas.report_build_ms"] = msf(timeN(3, func() { rep = usaas.BuildReport(qs, an, opts) }))
	var encErr error
	v["usaas.report_encode_us"] = us(timeN(3, func() { _, encErr = json.Marshal(rep) }))
	if encErr != nil {
		return nil, fmt.Errorf("encoding report: %w", encErr)
	}
	var views []time.Duration
	for _, mt := range []telemetry.Metric{telemetry.LatencyMean, telemetry.LossMean, telemetry.JitterMean, telemetry.BandwidthMean} {
		for _, e := range telemetry.Engagements() {
			for _, isp := range mixISPs {
				qs.DoseResponseSeries(mt, e, stats.NewBinner(0, 300, 10), isp) // materialize
				t0 := time.Now()
				qs.DoseResponseSeries(mt, e, stats.NewBinner(0, 300, 10), isp)
				views = append(views, time.Since(t0))
			}
		}
	}
	v["usaas.dose_view_us"] = us(pct(views, 0.5))
	var sweeps []time.Duration
	for _, mt := range []telemetry.Metric{telemetry.LatencyMean, telemetry.LossMean, telemetry.JitterMean, telemetry.BandwidthMean} {
		spec := usaas.StudyFilterSpec(mt)
		t0 := time.Now()
		if _, err := qs.DoseResponseSpec(mt, telemetry.Presence, stats.NewBinner(0, 300, 10), &spec, 0); err != nil {
			return nil, fmt.Errorf("columnar sweep: %w", err)
		}
		sweeps = append(sweeps, time.Since(t0))
	}
	v["colstore.sweep_us"] = us(pct(sweeps, 0.5))
	if c := qs.Corpus(); c != nil {
		v["social.token_build_ms"] = msf(timeN(3, func() { social.NewCorpus(c.Window, c.Posts).BuildTokens(0) }))
		topts := usaas.TrendOptions{MaxTerms: 10}
		sopts := usaas.SweepOptions{Sentiment: true, Dict: nlp.OutageDictionary(), Gate: true, Trends: &topts}
		v["usaas.social_sweep_ms"] = msf(timeN(3, func() { usaas.SweepCorpus(c, an, sopts) }))
	}

	// Cache counters.
	if lookups := b.cache.Hits + b.cache.Misses; lookups > 0 {
		v["usaas.cache_hit_ratio"] = float64(b.cache.Hits) / float64(lookups)
	}
	v["usaas.cache_collapsed"] = float64(b.cache.Collapsed)

	// Spans.
	bd := b.env.tr.breakdown()
	if o := bd[classIngest]; o != nil {
		if o.coord {
			v["cluster.coord_ingest_self_us"] = us(pct(o.self, 0.5))
		} else {
			v["usaas.handler_ingest_us"] = us(pct(o.server, 0.5))
			v["usaas.http_residual_us"] = us(pct(o.http, 0.5))
		}
	}
	if o := bd[classReport]; o != nil {
		if o.coord {
			v["cluster.coord_report_self_ms"] = msf(pct(o.self, 0.5))
		} else {
			v["usaas.handler_report_ms"] = msf(pct(o.server, 0.5))
		}
	}
	isIngest := func(p string) bool { return p == "/v1/sessions" || p == "/v1/posts" }
	v["cluster.shard_ingest_us"] = us(pct(b.env.tr.shardSpans(isIngest), 0.5))
	v["cluster.shard_partials_ms"] = msf(pct(b.env.tr.shardSpans(func(p string) bool { return p == "/v1/partials" }), 0.5))
	tr := b.env.tr
	if coordIngests := tr.count(layerCoord+" /v1/sessions") + tr.count(layerCoord+" /v1/posts"); coordIngests > 0 {
		v["cluster.fanouts_per_ingest"] = float64(tr.count(layerShard+" /v1/sessions")+tr.count(layerShard+" /v1/posts")) / float64(coordIngests)
	}
	if cs := b.stats.Cluster; cs != nil && b.coordReads > 0 {
		v["cluster.partial_merges_per_report"] = float64(cs.PartialMerges) / float64(b.coordReads)
	}
	v["loadgen.writer_late_p99_ms"] = msf(pct(b.writerLate, 0.99))
	return v, nil
}

// printBudget writes, per operation class, each stage's p50 self time,
// the residual against the client-seen p50, and the tracing overhead
// (traced minus untraced client p50 under the same load).
func (b *bench) printBudget(out io.Writer, v map[string]float64) {
	bd := b.env.tr.breakdown()
	for _, class := range []string{classIngest, classReport, classRead} {
		o := bd[class]
		if o == nil {
			continue
		}
		traced := pct(b.log.durations(class, true, false), 0.5)
		untraced := pct(b.log.durations(class, false, true), 0.5)
		client := pct(o.client, 0.5)
		fmt.Fprintf(out, "budget %s/%s: client p50 %.3f ms over %d traced ops (send to reply %.3f ms); untraced p50 %.3f ms; tracing overhead %+.3f ms\n",
			b.opts.workload, class, msf(traced), len(o.client), msf(client), msf(untraced), msf(traced-untraced))
		row := func(stage string, d time.Duration) { fmt.Fprintf(out, "  %-34s %10.3f ms\n", stage, msf(d)) }
		var sum time.Duration
		row("http (client - server span)", pct(o.http, 0.5))
		sum += pct(o.http, 0.5)
		if o.coord {
			row("cluster.coordinator self", pct(o.self, 0.5))
			row("cluster.shards (covered)", pct(o.shards, 0.5))
			sum += pct(o.self, 0.5) + pct(o.shards, 0.5)
		} else {
			row("usaas.handler", pct(o.server, 0.5))
			sum += pct(o.server, 0.5)
		}
		// Replays of the stages inside the handler, for attribution.
		sub := func(stage, metric string, scale float64) {
			fmt.Fprintf(out, "    %-32s %10.3f ms (replay)\n", stage, v[metric]*scale)
		}
		switch class {
		case classIngest:
			sub("telemetry.decode", "telemetry.decode_us", 1e-3)
			sub("durable.wal_append (fsync)", "durable.wal_append_us", 1e-3)
			sub("usaas.apply", "usaas.apply_us", 1e-3)
			sub("colstore.append", "colstore.append_us", 1e-3)
		case classReport:
			sub("usaas.report_build", "usaas.report_build_ms", 1)
			sub("usaas.report_encode", "usaas.report_encode_us", 1e-3)
		case classRead:
			sub("usaas.dose_view", "usaas.dose_view_us", 1e-3)
		}
		row("residual vs client p50", client-sum)
	}
}
