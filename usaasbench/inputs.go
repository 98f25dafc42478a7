package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"usersignals/internal/conference"
	"usersignals/internal/leo"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// batch is one pre-encoded ingest request: the wire bytes the client
// sends, plus the decoded form the reference store and the layer replays
// are fed.
type batch struct {
	posts    bool
	wire     []byte // NDJSON sessions, or a JSON array of posts
	sessions []telemetry.SessionRecord
	postRecs []social.Post
}

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	// preload is the fixed corpus query and cluster load before timing:
	// large session batches followed by the post batches.
	preload []batch
	// writes is the pool writers cycle through: 20-record session
	// batches with every postsEvery'th entry a 20-post batch.
	writes []batch
	// window is the social corpus window (the token-build replay needs it).
	window timeline.Range
	// readMix is one cycle of the operator's read paths.
	readMix []string
}

const (
	batchRecords   = 20  // records per write batch, the usaasload shape
	postsEvery     = 10  // every 10th write is a post batch
	preloadRecords = 500 // session records per preload batch
	preloadPosts   = 500 // posts per preload batch
)

// makeInputs generates the seeded corpora and encodes every batch once, so
// timed loops spend their time on the wire and in the server.
func makeInputs(seed uint64, preloadCalls, poolCalls int) (*inputs, error) {
	in := &inputs{}
	scfg := social.DefaultConfig(seed)
	scfg.Window = timeline.Range{From: timeline.Date(2022, 1, 1), To: timeline.Date(2022, 2, 28)}
	scfg.Outages = leo.AllOutages(seed, scfg.Window, 1.5)
	corpus, err := social.Generate(scfg)
	if err != nil {
		return nil, fmt.Errorf("generating posts: %w", err)
	}
	in.window = scfg.Window
	posts := corpus.Posts

	if preloadCalls > 0 {
		recs, err := generateSessions(seed, preloadCalls)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(recs); i += preloadRecords {
			b, err := sessionBatch(recs[i:min(i+preloadRecords, len(recs))])
			if err != nil {
				return nil, err
			}
			in.preload = append(in.preload, b)
		}
		for i := 0; i < len(posts); i += preloadPosts {
			b, err := postBatch(posts[i:min(i+preloadPosts, len(posts))])
			if err != nil {
				return nil, err
			}
			in.preload = append(in.preload, b)
		}
	}

	// The write pool comes from its own seed stream, so writers add calls
	// the preload does not hold.
	recs, err := generateSessions(seed^0x9e3779b97f4a7c15, poolCalls)
	if err != nil {
		return nil, err
	}
	var postBatches []batch
	for i := 0; i+batchRecords <= len(posts); i += batchRecords {
		b, err := postBatch(posts[i : i+batchRecords])
		if err != nil {
			return nil, err
		}
		postBatches = append(postBatches, b)
	}
	for i, p := 0, 0; i+batchRecords <= len(recs); {
		if len(in.writes)%postsEvery == postsEvery-1 && len(postBatches) > 0 {
			in.writes = append(in.writes, postBatches[p%len(postBatches)])
			p++
			continue
		}
		b, err := sessionBatch(recs[i : i+batchRecords])
		if err != nil {
			return nil, err
		}
		in.writes = append(in.writes, b)
		i += batchRecords
	}
	if len(in.writes) == 0 {
		return nil, fmt.Errorf("write pool empty: %d sessions < one batch of %d", len(recs), batchRecords)
	}
	in.readMix = readMix(seed)
	return in, nil
}

func generateSessions(seed uint64, calls int) ([]telemetry.SessionRecord, error) {
	opts := conference.Defaults(seed, calls)
	opts.Workers = 2 // output is byte-identical at any worker count
	g, err := conference.New(opts)
	if err != nil {
		return nil, fmt.Errorf("conference generator: %w", err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		return nil, fmt.Errorf("generating sessions: %w", err)
	}
	return recs, nil
}

func sessionBatch(recs []telemetry.SessionRecord) (batch, error) {
	wire, err := telemetry.AppendNDJSON(nil, recs)
	if err != nil {
		return batch{}, fmt.Errorf("encoding sessions: %w", err)
	}
	return batch{wire: wire, sessions: recs}, nil
}

// postBatch encodes posts as the JSON array usaas.Client sends; the
// coordinator accepts only that form.
func postBatch(posts []social.Post) (batch, error) {
	wire, err := json.Marshal(posts)
	if err != nil {
		return batch{}, fmt.Errorf("encoding posts: %w", err)
	}
	return batch{posts: true, wire: wire, postRecs: posts}, nil
}

// Read-mix dimensions. /v1/report, 4 metrics x 3 engagements x 3 ISPs
// engagement curves, 4 experience queries, MOS, sentiment and 3
// confounder queries: 46 distinct keys, well under the 256-entry result
// cache and the 64 materialized dose-response views. Each key appears
// once per cycle, and a cycle of cold reads outlasts the query writer's
// period, so the store generation has moved before a key repeats: reads
// recompute, and cache hits come only from a repeat inside one
// generation.
var (
	mixMetrics     = []string{"latency-mean-ms", "loss-mean-pct", "jitter-mean-ms", "bandwidth-mean-mbps"}
	mixEngagements = []string{"presence", "cam-on", "mic-on"}
	mixISPs        = []string{"metrofiber", "cablecorp", "starlink"}
	mixExperience  = []string{"metrofiber", "cablecorp", "starlink", "dslnet"}
)

// readMix returns one seeded cycle of the operator's read paths.
func readMix(seed uint64) []string {
	var mix []string
	for _, m := range mixMetrics {
		for _, e := range mixEngagements {
			for _, isp := range mixISPs {
				mix = append(mix, fmt.Sprintf("/v1/insights/engagement?metric=%s&engagement=%s&isp=%s", m, e, isp))
			}
		}
	}
	for _, isp := range mixExperience {
		mix = append(mix, "/v1/query/experience?isp="+isp)
	}
	mix = append(mix, "/v1/insights/mos", "/v1/insights/sentiment")
	for _, e := range mixEngagements {
		mix = append(mix, "/v1/insights/confounders?engagement="+e)
	}
	mix = append(mix, reportPath)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

const reportPath = "/v1/report"
