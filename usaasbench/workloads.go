package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/usaas"
)

// Operation classes, the keys of opLog and of the budget table.
const (
	classIngest = "ingest"
	classReport = "report"
	classRead   = "read"
)

// opLog is one goroutine's record of its operations; merged after join.
type opLog struct {
	lat       map[string]*[2][]time.Duration // class → [untraced, traced]
	attempted int
	failed    int
	errs      []string
}

func newOpLog() *opLog { return &opLog{lat: map[string]*[2][]time.Duration{}} }

func (l *opLog) record(class string, traced bool, d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.fail(err)
		return
	}
	s := l.lat[class]
	if s == nil {
		s = &[2][]time.Duration{}
		l.lat[class] = s
	}
	i := 0
	if traced {
		i = 1
	}
	s[i] = append(s[i], d)
}

// fail counts a failed operation (or a failed correctness check, which
// counts as one more failed operation).
func (l *opLog) fail(err error) {
	l.failed++
	if len(l.errs) < 8 {
		l.errs = append(l.errs, err.Error())
	}
}

// check counts a correctness check as an attempted operation.
func (l *opLog) check(err error) {
	l.attempted++
	if err != nil {
		l.fail(err)
	}
}

func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
	for class, s := range o.lat {
		d := l.lat[class]
		if d == nil {
			d = &[2][]time.Duration{}
			l.lat[class] = d
		}
		d[0] = append(d[0], s[0]...)
		d[1] = append(d[1], s[1]...)
	}
}

// durations returns a class's latencies: traced, untraced, or both.
func (l *opLog) durations(class string, traced, untraced bool) []time.Duration {
	s := l.lat[class]
	if s == nil {
		return nil
	}
	var out []time.Duration
	if untraced {
		out = append(out, s[0]...)
	}
	if traced {
		out = append(out, s[1]...)
	}
	return out
}

// written is one acknowledged write, in the order a single sequential
// writer sent it.
type written struct {
	id string
	b  batch
}

// bench is one run's state and measurements.
type bench struct {
	opts options
	in   *inputs
	env  *serverEnv
	c    *client
	work string // data directories live here

	heapBase uint64 // live heap before any server opened

	log        *opLog
	setup      []float64 // s
	recovery   []float64 // s
	rates      []float64 // acked batches/s per timed phase
	ingestP50  []float64 // ms, per timed phase
	ingestP99  []float64 // ms, per timed phase
	heap       []float64 // MiB
	disk       []float64 // data-dir bytes / acked wire bytes
	writerLate []time.Duration

	// Gathered for the traced run's layer metrics.
	commit      durable.CommitMetrics
	ackedWrites int
	cache       usaas.CacheMetrics
	replay      []float64           // durable.Replay seconds on copied dirs
	stats       usaas.StatsResponse // final /v1/stats of the node or coordinator
	coordReads  int
	ref         *usaas.Store // the gate's in-memory reference (query, cluster)

	// The serving workloads' acked writes and final live report, kept so
	// the gate can be re-run against a different reference.
	lastWrites []written
	lastReport []byte
}

// opID names an operation; traced ones carry tracedPrefix.
func opID(traced bool, format string, args ...any) string {
	id := fmt.Sprintf(format, args...)
	if traced {
		return tracedPrefix + id
	}
	return id
}

// traceOp reports whether operation i is traced: every other one, on a
// traced run only.
func (b *bench) traceOp(i int) bool { return b.env.tr != nil && i%2 == 1 }

// send times one operation. Latency runs from `from` (the due time for an
// open-loop writer, else the send time); a traced operation also records
// its client span and passes its ID to the server.
func (b *bench) send(l *opLog, class string, traced bool, id string, from time.Time, do func(hdr http.Header) error) error {
	var hdr http.Header
	if traced {
		hdr = http.Header{opHeader: {id}}
	}
	start := time.Now()
	if from.IsZero() {
		from = start
	}
	err := do(hdr)
	end := time.Now()
	if traced && err == nil {
		b.env.tr.add(span{layer: layerClient, path: class, id: id, start: start, end: end})
	}
	l.record(class, traced, end.Sub(from), err)
	return err
}

// write sends one batch and checks its acknowledgement.
func (b *bench) write(l *opLog, base string, bt batch, id string, traced bool, from time.Time) error {
	return b.send(l, classIngest, traced, id, from, func(hdr http.Header) error {
		body, err := b.c.post(base, bt, id, hdr)
		if err != nil {
			return err
		}
		var ack usaas.IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			return fmt.Errorf("batch %s: decoding ack: %w", id, err)
		}
		want := len(bt.sessions)
		if bt.posts {
			want = len(bt.postRecs)
		}
		if ack.Duplicate || ack.Accepted != want {
			return fmt.Errorf("batch %s: ack accepted=%d duplicate=%v, want %d new", id, ack.Accepted, ack.Duplicate, want)
		}
		return nil
	})
}

// read GETs one mix path and returns the body.
func (b *bench) read(l *opLog, base, path string, traced bool, id string) ([]byte, error) {
	class := classRead
	if path == reportPath {
		class = classReport
	}
	var body []byte
	err := b.send(l, class, traced, id, time.Time{}, func(hdr http.Header) error {
		var err error
		body, err = b.c.do(http.MethodGet, base+path, nil, hdr)
		return err
	})
	return body, err
}

// phase records one timed phase's ingest throughput and latency
// percentiles and returns the acked batch count. Runs report the median
// over phases, so one slow stretch of a shared machine moves a run's
// figure less.
func (b *bench) phase(l *opLog, wall time.Duration) int {
	lat := l.durations(classIngest, true, true)
	b.rates = append(b.rates, float64(len(lat))/wall.Seconds())
	b.ingestP50 = append(b.ingestP50, msf(pct(lat, 0.50)))
	b.ingestP99 = append(b.ingestP99, msf(pct(lat, 0.99)))
	return len(lat)
}

// heapMiB is the live heap after a full GC, less the pre-server baseline.
func (b *bench) heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(b.heapBase)) / (1 << 20)
}

func (b *bench) dir(format string, args ...any) string {
	return filepath.Join(b.work, fmt.Sprintf(format, args...))
}

// ready blocks on one readiness probe: the node serves once it answers.
func (b *bench) ready(base string) error {
	_, err := b.c.get(base + "/v1/readyz")
	return err
}

// --- ingest -------------------------------------------------------------

// runIngest repeats a fixed-work round — a fresh node ingests the same
// roundWrites batches from `writers` closed-loop clients — until the
// timed ingest adds up to the run's seconds. Every round therefore
// builds the same store, WAL and recovery input.
func (b *bench) runIngest() error {
	var timed time.Duration
	for r := 0; r < b.opts.minRounds || timed < b.opts.seconds; r++ {
		wall, err := b.ingestRound(r)
		if err != nil {
			return err
		}
		timed += wall
	}
	return nil
}

func (b *bench) ingestRound(r int) (time.Duration, error) {
	dir := b.dir("ingest-%d", r)
	flushDisks()
	t0 := time.Now()
	n, err := openNode(b.env, dir, layerUsaas)
	if err != nil {
		return 0, err
	}
	if err := b.ready(n.l.url); err != nil {
		n.close()
		return 0, err
	}
	b.setup = append(b.setup, time.Since(t0).Seconds())

	writes := b.in.writes
	var next atomic.Int64
	logs := make([]*opLog, b.opts.writers)
	acked := make([][3]int, b.opts.writers) // sessions, posts, wire bytes
	late := make([][]time.Duration, b.opts.writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = newOpLog()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A closed-loop writer is due to send as soon as its previous
			// write is acked; its lateness is the generator's own delay.
			due := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= b.opts.roundWrites {
					return
				}
				bt := writes[i%len(writes)]
				traced := b.traceOp(i)
				id := opID(traced, "r%d-%d", r, i)
				late[w] = append(late[w], time.Since(due))
				err := b.write(logs[w], n.l.url, bt, id, traced, time.Time{})
				due = time.Now()
				if err == nil {
					acked[w][0] += len(bt.sessions)
					acked[w][1] += len(bt.postRecs)
					acked[w][2] += len(bt.wire)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	round := newOpLog()
	var sessions, posts, wire int
	for w, l := range logs {
		round.merge(l)
		b.writerLate = append(b.writerLate, late[w]...)
		sessions += acked[w][0]
		posts += acked[w][1]
		wire += acked[w][2]
	}
	b.log.merge(round)
	batches := b.phase(round, wall)
	b.heap = append(b.heap, b.heapMiB())
	b.log.check(b.checkCounts(n.l.url, sessions, posts))
	b.log.check(checkGauges(durability(dir), n.d, batches, true))
	b.gatherNode(n, batches)

	copyDir := dir + "-copy"
	rec, err := b.recover([]string{dir}, []string{copyDir}, wire)
	if err != nil {
		n.close()
		return 0, err
	}
	// Gate: the recovered copy answers every read of the mix exactly as
	// the live node does. These are the workload's timed reads, each one
	// cold on its node; the report goes first, so no other read has
	// warmed a view it folds.
	for k, path := range gatePaths(b.in.readMix) {
		traced := b.traceOp(k + r)
		want, err := b.read(b.log, n.l.url, path, traced, opID(traced, "r%d-live-%d", r, k))
		if err != nil {
			continue
		}
		got, err := b.read(b.log, rec.url(), path, traced, opID(traced, "r%d-rec-%d", r, k))
		if err != nil {
			continue
		}
		b.log.check(sameBytes("recovered "+path, got, want))
	}
	if err := rec.close(); err != nil {
		n.close()
		return 0, err
	}
	if err := n.close(); err != nil {
		return 0, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	return wall, os.RemoveAll(copyDir)
}

// gatePaths is the read mix's distinct paths, the report first.
func gatePaths(mix []string) []string {
	out := []string{reportPath}
	for _, path := range mix {
		if !slices.Contains(out, path) {
			out = append(out, path)
		}
	}
	return out
}

// recover copies the data directories of a node or fleet, as a crash
// after the last acknowledgement would leave them, measures the disk
// bytes per acked wire byte, and reopens the copy until it serves. For a
// single directory the copy opens as a node, for several as a fleet.
func (b *bench) recover(dirs, copies []string, wire int) (target, error) {
	var disk int64
	for i, dir := range dirs {
		if err := copyDir(dir, copies[i]); err != nil {
			return nil, fmt.Errorf("copying %s: %w", dir, err)
		}
		n, err := dirBytes(copies[i])
		if err != nil {
			return nil, err
		}
		disk += n
	}
	b.disk = append(b.disk, float64(disk)/float64(wire))
	if b.env.tr != nil {
		for _, c := range copies {
			t0 := time.Now()
			if _, err := durable.Replay(c, 0, func(uint64, durable.Record) error { return nil }); err != nil {
				return nil, fmt.Errorf("replaying %s: %w", c, err)
			}
			b.replay = append(b.replay, time.Since(t0).Seconds())
		}
	}
	// The copy is not flushed: it is removed long before the kernel
	// would write it back, and the recovery reads it from the page cache
	// either way, so a sync here would only add disk traffic.
	t0 := time.Now()
	var rec target
	var err error
	if len(copies) == 1 {
		rec, err = openNode(b.env, copies[0], layerUsaas)
	} else {
		rec, err = openFleet(b.env, copies)
	}
	if err != nil {
		return nil, err
	}
	if err := b.ready(rec.url()); err != nil {
		rec.close()
		return nil, err
	}
	b.recovery = append(b.recovery, time.Since(t0).Seconds())
	return rec, nil
}

// checkCounts is the ingest gate: store counts equal the acked totals.
func (b *bench) checkCounts(base string, sessions, posts int) error {
	body, err := b.c.get(base + "/v1/stats")
	if err != nil {
		return err
	}
	var st usaas.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decoding /v1/stats: %w", err)
	}
	b.stats = st
	if st.Sessions != sessions || st.Posts != posts {
		return fmt.Errorf("store holds %d sessions, %d posts; clients acked %d, %d", st.Sessions, st.Posts, sessions, posts)
	}
	return nil
}

// checkGauges cross-checks the commit scheduler's gauges against the
// acked batch count, keyed on the effective fsync policy: group-commit
// gauges exist only when fsync=batch runs the scheduler, and their
// absence under fsync=interval or off is the expected state.
func checkGauges(opts usaas.DurabilityOptions, d *usaas.DurableStore, acked int, exact bool) error {
	m, ok := d.CommitMetrics()
	if !(opts.Fsync == durable.FsyncPerBatch && opts.GroupCommit) {
		if ok {
			return fmt.Errorf("commit gauges reported under fsync=%s group-commit=%v", opts.Fsync, opts.GroupCommit)
		}
		return nil
	}
	var errs []string
	if !ok {
		errs = append(errs, "no commit gauges under fsync=batch with group commit")
	}
	if exact && m.Batches != uint64(acked) {
		errs = append(errs, fmt.Sprintf("commit batches %d, acked %d", m.Batches, acked))
	}
	if m.Groups == 0 || m.Groups > m.Batches {
		errs = append(errs, fmt.Sprintf("commit groups %d out of 1..%d", m.Groups, m.Batches))
	}
	var hist uint64
	for _, n := range m.GroupSizeHist {
		hist += n
	}
	if hist != m.Groups {
		errs = append(errs, fmt.Sprintf("group-size histogram sums to %d, want %d groups", hist, m.Groups))
	}
	if m.QueueDepth != 0 {
		errs = append(errs, fmt.Sprintf("commit queue depth %d after the last ack", m.QueueDepth))
	}
	if m.FsyncCount == 0 {
		errs = append(errs, "no fsync under fsync=batch")
	}
	if len(errs) > 0 {
		return fmt.Errorf("gauge check: %v", errs)
	}
	return nil
}

// gatherNode adds a node's commit and cache counters to the run's totals.
func (b *bench) gatherNode(n *node, acked int) {
	if m, ok := n.d.CommitMetrics(); ok {
		b.commit.Groups += m.Groups
		b.commit.Batches += m.Batches
		b.commit.FsyncCount += m.FsyncCount
		b.commit.FsyncTotalNs += m.FsyncTotalNs
	}
	b.ackedWrites += acked
	cm := n.srv.CacheMetrics()
	b.cache.Hits += cm.Hits
	b.cache.Misses += cm.Misses
	b.cache.Collapsed += cm.Collapsed
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the expected %d bytes", what, len(got), len(want))
	}
	return nil
}

// --- query and cluster ---------------------------------------------------

// target is the server a query or cluster run drives: a node or a fleet.
type target interface {
	url() string
	dirs() []string
	close() error
}

func (n *node) url() string    { return n.l.url }
func (n *node) dirs() []string { return []string{n.dir} }
func (f *fleet) dirs() []string {
	var out []string
	for _, n := range f.shards {
		out = append(out, n.dir)
	}
	return out
}

// setupTarget opens a fresh server and preloads the fixed corpus over
// HTTP with one sequential writer, so the apply order is known.
func (b *bench) setupTarget(k int) (target, error) {
	flushDisks()
	t0 := time.Now()
	var t target
	var err error
	if b.opts.workload == "cluster" {
		t, err = openFleet(b.env, []string{b.dir("setup%d-s0", k), b.dir("setup%d-s1", k)})
	} else {
		t, err = openNode(b.env, b.dir("setup%d", k), layerUsaas)
	}
	if err != nil {
		return nil, err
	}
	for i, bt := range b.in.preload {
		if _, err := b.c.post(t.url(), bt, preloadID(i), nil); err != nil {
			t.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := b.ready(t.url()); err != nil {
		t.close()
		return nil, err
	}
	b.setup = append(b.setup, time.Since(t0).Seconds())
	return t, nil
}

func preloadID(i int) string { return fmt.Sprintf("preload-%d", i) }

// queryWriteRate is the query workload's open-loop writer rate, batches/s:
// far below ingest capacity, and fast enough that every key of the read
// mix sees a new store generation between two visits.
const queryWriteRate = 20

// arrivals is the query writer's seeded schedule: write i is due at a
// random point in the first 4/5 of its 1/rate slot. The jitter keeps the
// writes from beating against the operator's read cycle, and no gap
// between two writes exceeds 1.6 slots, shorter than a cycle of cold
// reads, so the generation still moves between two visits of a key.
func arrivals(seed uint64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	slot := time.Second / queryWriteRate
	out := make([]time.Duration, int(window/slot))
	for i := range out {
		out[i] = time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)*4/5))
	}
	return out
}

// runServing is the query and cluster workload: set up `setups` times
// (keeping the last), then run one closed-loop operator cycling the read
// mix beside one writer for the run's seconds, then gate the answers.
func (b *bench) runServing() error {
	var t target
	for k := 0; k < b.opts.setups; k++ {
		if t != nil {
			if err := t.close(); err != nil {
				return err
			}
			for _, d := range t.dirs() {
				if err := os.RemoveAll(d); err != nil {
					return err
				}
			}
		}
		var err error
		if t, err = b.setupTarget(k); err != nil {
			return err
		}
	}
	defer t.close()
	base := t.url()

	var writes []written
	wlog, olog := newOpLog(), newOpLog()
	flushDisks()
	start := time.Now()
	end := start.Add(b.opts.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		schedule := arrivals(b.opts.seed, b.opts.seconds)
		for i := 0; ; i++ {
			var due time.Time
			if b.opts.workload == "query" {
				// Open loop: batch i is due at its scheduled arrival and
				// timed from then.
				if i == len(schedule) {
					return
				}
				due = start.Add(schedule[i])
				time.Sleep(time.Until(due))
				b.writerLate = append(b.writerLate, time.Since(due))
			} else if !time.Now().Before(end) {
				return
			}
			bt := b.in.writes[i%len(b.in.writes)]
			traced := b.traceOp(i)
			id := opID(traced, "w-%d", i)
			if b.write(wlog, base, bt, id, traced, due) == nil {
				writes = append(writes, written{id: id, b: bt})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; time.Now().Before(end); j++ {
			// Shift the traced parity every cycle, so each key of the mix
			// is traced on alternate visits.
			traced := b.traceOp(j + j/len(b.in.readMix))
			b.read(olog, base, b.in.readMix[j%len(b.in.readMix)], traced, opID(traced, "q-%d", j))
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	b.log.merge(wlog)
	b.log.merge(olog)
	b.phase(wlog, wall)
	b.heap = append(b.heap, b.heapMiB())
	b.coordReads = olog.attempted

	var sessions, posts, wire int
	for _, bt := range b.in.preload {
		sessions += len(bt.sessions)
		posts += len(bt.postRecs)
		wire += len(bt.wire)
	}
	for _, w := range writes {
		sessions += len(w.b.sessions)
		posts += len(w.b.postRecs)
		wire += len(w.b.wire)
	}
	b.log.check(b.checkCounts(base, sessions, posts))
	acked := len(b.in.preload) + len(writes)
	switch t := t.(type) {
	case *node:
		b.log.check(checkGauges(durability(t.dir), t.d, acked, true))
		b.gatherNode(t, acked)
	case *fleet:
		b.log.check(checkFleet(b.stats.Cluster, acked))
		for _, n := range t.shards {
			// Shards also journal the empty sub-batches, so only the
			// gauges' internal consistency is checked, not their totals.
			b.log.check(checkGauges(durability(n.dir), n.d, 0, false))
			b.gatherNode(n, 0)
		}
		b.ackedWrites = acked
	}

	live, err := b.c.get(base + reportPath)
	if err != nil {
		return fmt.Errorf("final report: %w", err)
	}
	// Recovery: reopen a fresh copy `setups` times; the first one's report
	// must match the live one.
	for k := 0; k < b.opts.setups; k++ {
		var copies []string
		for i := range t.dirs() {
			copies = append(copies, b.dir("recover%d-%d", k, i))
		}
		rec, err := b.recover(t.dirs(), copies, wire)
		if err != nil {
			return err
		}
		if k == 0 {
			got, err := b.c.get(rec.url() + reportPath)
			if err != nil {
				b.log.check(err)
			} else {
				b.log.check(sameBytes("recovered report", got, live))
			}
		}
		if err := rec.close(); err != nil {
			return err
		}
		for _, c := range copies {
			if err := os.RemoveAll(c); err != nil {
				return err
			}
		}
	}
	b.log.check(b.checkReference(live, writes))
	b.lastWrites = writes
	b.lastReport = live
	return nil
}

// checkFleet checks the coordinator's fleet gauges: every shard up and
// fanned out to at least once per ingest, no errors, nothing degraded.
func checkFleet(cs *usaas.ClusterStats, ingests int) error {
	if cs == nil || len(cs.Shards) == 0 {
		return fmt.Errorf("coordinator /v1/stats has no cluster section")
	}
	var errs []string
	for _, sh := range cs.Shards {
		if !sh.Up || sh.Errors != 0 || sh.Fanouts < uint64(ingests) {
			errs = append(errs, fmt.Sprintf("shard %s up=%v errors=%d fanouts=%d (< %d ingests?)", sh.Name, sh.Up, sh.Errors, sh.Fanouts, ingests))
		}
	}
	if cs.DegradedSections != 0 {
		errs = append(errs, fmt.Sprintf("%d degraded sections", cs.DegradedSections))
	}
	if len(errs) > 0 {
		return fmt.Errorf("fleet gauge check: %v", errs)
	}
	return nil
}

// checkReference is the query and cluster gate: the live /v1/report is
// byte-identical to an in-memory store fed the preload and then the
// acked writes, in the order the single writer sent them.
func (b *bench) checkReference(live []byte, writes []written) error {
	ref, err := b.reference(writes)
	if err != nil {
		return err
	}
	b.ref = ref
	srv := usaas.NewServer(ref, b.env.serverOptions())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reportPath, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("reference report: status %d", rec.Code)
	}
	return sameBytes("report vs in-memory reference", live, rec.Body.Bytes())
}

// reference builds the in-memory store the gate compares against.
func (b *bench) reference(writes []written) (*usaas.Store, error) {
	st := &usaas.Store{}
	add := func(id string, bt batch) error {
		var err error
		if bt.posts {
			_, _, err = st.AddPostsBatch(id, bt.postRecs)
		} else {
			_, _, err = st.AddSessionsBatch(id, bt.sessions)
		}
		return err
	}
	for i, bt := range b.in.preload {
		if err := add(preloadID(i), bt); err != nil {
			return nil, err
		}
	}
	for _, w := range writes {
		if err := add(w.id, w.b); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// median of a sample; NaN-free callers only pass non-empty slices.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
