package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/usaas"
)

// Span layers. Spans are recorded only in this package: the client
// around each operation, and a wrapper around each server's handler.
const (
	layerClient = "client"
	layerUsaas  = "usaas" // a single node's Server.Handler
	layerCoord  = "coord" // the cluster Coordinator.Handler
	layerShard  = "shard" // a shard node's Server.Handler
)

// opHeader carries a traced operation's ID from the client to the first
// server it reaches. Shards are reached through the coordinator, which
// does not forward it; shard ingest spans link by the sub-batch ID
// "<id>@v<ver>/s<i>" instead, and shard reads by time overlap with the
// single operator's traced coordinator read.
const opHeader = "X-Bench-Op"

// tracedPrefix marks the IDs of traced operations. A traced run traces
// every other operation, so the untraced half gives the overhead baseline
// under the same load.
const tracedPrefix = "t."

// overlapID marks a shard read span to be attributed by time overlap.
const overlapID = "?"

type span struct {
	layer      string
	path       string
	id         string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans and per-boundary request counts in memory until the
// run ends. A nil tracer records nothing and wraps nothing.
type tracer struct {
	mu       sync.Mutex
	spans    []span
	requests map[string]int // "<layer> <path>" → requests seen

	tracedReads atomic.Int32 // traced coordinator reads in flight
}

func newTracer() *tracer { return &tracer{requests: map[string]int{}} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(key string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests[key]
}

// wrap records a span per traced request around h. Untraced runs pass a
// nil tracer and get h back unchanged.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil || layer == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(opHeader)
		if id == "" && layer == layerShard {
			if b := r.Header.Get(usaas.BatchIDHeader); strings.HasPrefix(b, tracedPrefix) {
				if i := strings.Index(b, "@v"); i > 0 {
					id = b[:i]
				}
			} else if b == "" && t.tracedReads.Load() > 0 {
				id = overlapID
			}
		}
		if id != "" && layer == layerCoord && r.Method == http.MethodGet {
			t.tracedReads.Add(1)
			defer t.tracedReads.Add(-1)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.requests[layer+" "+r.URL.Path]++
		if id != "" {
			t.spans = append(t.spans, span{layer: layer, path: r.URL.Path, id: id, start: start, end: end})
		}
		t.mu.Unlock()
	})
}

// opSpans is the per-operation breakdown of one operation class.
type opSpans struct {
	client []time.Duration // client-seen
	server []time.Duration // first server's handler span
	http   []time.Duration // client minus server: transport and encode/decode
	self   []time.Duration // server minus the part its shard spans cover
	shards []time.Duration // union of shard spans under the server span
	coord  bool            // the first server was a coordinator
}

// breakdown links every traced client span to its server spans and
// returns the per-class breakdowns, keyed by client span path (the class).
func (t *tracer) breakdown() map[string]*opSpans {
	out := map[string]*opSpans{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	servers := map[string]span{}
	children := map[string][]span{}
	var overlap []span
	for _, s := range t.spans {
		switch s.layer {
		case layerUsaas, layerCoord:
			servers[s.id] = s
		case layerShard:
			if s.id == overlapID {
				overlap = append(overlap, s)
			} else {
				children[s.id] = append(children[s.id], s)
			}
		}
	}
	sort.Slice(overlap, func(i, j int) bool { return overlap[i].start.Before(overlap[j].start) })
	for _, c := range t.spans {
		if c.layer != layerClient {
			continue
		}
		srv, ok := servers[c.id]
		if !ok {
			continue
		}
		o := out[c.path]
		if o == nil {
			o = &opSpans{}
			out[c.path] = o
		}
		o.client = append(o.client, c.dur())
		o.server = append(o.server, srv.dur())
		o.http = append(o.http, c.dur()-srv.dur())
		if srv.layer != layerCoord {
			o.self = append(o.self, srv.dur())
			continue
		}
		o.coord = true
		kids := children[c.id]
		if len(kids) == 0 {
			// Reads: the one operator's shard reads inside this span.
			i := sort.Search(len(overlap), func(i int) bool { return !overlap[i].start.Before(srv.start) })
			for ; i < len(overlap) && overlap[i].start.Before(srv.end); i++ {
				kids = append(kids, overlap[i])
			}
		}
		cov := coverage(kids, srv.start, srv.end)
		o.shards = append(o.shards, cov)
		o.self = append(o.self, srv.dur()-cov)
	}
	return out
}

// shardSpans returns the durations of linked shard spans whose path
// satisfies match.
func (t *tracer) shardSpans(match func(path string) bool) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.layer == layerShard && match(s.path) {
			out = append(out, s.dur())
		}
	}
	return out
}

// coverage is how much of [lo, hi] the union of spans covers.
func coverage(spans []span, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
