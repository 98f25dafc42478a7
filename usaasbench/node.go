package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"usersignals/internal/cluster"
	"usersignals/internal/durable"
	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/usaas"
)

// serverEnv holds what every embedded server shares: the annotation model
// usaasd builds at start, and the tracer (nil on untraced runs, so no
// wrapper is installed and no span can be recorded).
type serverEnv struct {
	model *leo.Model
	news  *newswire.Index
	tr    *tracer
}

func newServerEnv(tr *tracer) *serverEnv {
	model := leo.NewModel()
	return &serverEnv{
		model: model,
		news:  newswire.Build(model.Launches(), leo.MajorOutages(), leo.DefaultMilestones()),
		tr:    tr,
	}
}

// durability is usaasd's flag defaults: -fsync batch, -group-commit,
// -group-delay 0, -snapshot-every 1024, -apply-workers 0, -columnar.
func durability(dir string) usaas.DurabilityOptions {
	return usaas.DurabilityOptions{
		Dir:           dir,
		Fsync:         durable.FsyncPerBatch,
		FsyncInterval: time.Second,
		GroupCommit:   true,
		SnapshotEvery: 1024,
	}
}

// serverOptions is usaasd's flag defaults for the HTTP service:
// -request-timeout 1m, no inflight cap, no admission, -result-cache 0
// (256 entries).
func (e *serverEnv) serverOptions() usaas.ServerOptions {
	return usaas.ServerOptions{Model: e.model, News: e.news, RequestTimeout: time.Minute}
}

// listener serves a handler on a loopback port with usaasd's timeouts.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to exit.
func (l *listener) close() {
	_ = l.hs.Close() // only reports listener close errors; nothing to act on
	<-l.done
}

// node is one embedded single-node usaasd on a data directory.
type node struct {
	dir string
	d   *usaas.DurableStore
	srv *usaas.Server
	l   *listener
}

// openNode opens (recovering, if the directory holds state) a durable
// store and serves it. layer names the tracer wrapper; "" serves the
// handler bare.
func openNode(e *serverEnv, dir, layer string) (*node, error) {
	d, err := usaas.OpenDurableStore(durability(dir))
	if err != nil {
		return nil, fmt.Errorf("opening durable store %s: %w", dir, err)
	}
	srv := usaas.NewServer(d.Store, e.serverOptions())
	l, err := serve(e.tr.wrap(layer, srv.Handler()))
	if err != nil {
		_ = d.Close() // the listen error is the one to report
		return nil, err
	}
	return &node{dir: dir, d: d, srv: srv, l: l}, nil
}

// close stops serving, then flushes and closes the store.
func (n *node) close() error {
	n.l.close()
	if err := n.d.Close(); err != nil {
		return fmt.Errorf("closing durable store %s: %w", n.dir, err)
	}
	return nil
}

// fleet is an embedded coordinator over day-hash shard nodes, wired as
// usaasd -role=coordinator -shards=... wires it.
type fleet struct {
	shards []*node
	coord  *cluster.Coordinator
	l      *listener
}

func (f *fleet) url() string { return f.l.url }

// openFleet opens one shard per directory (concurrently, as separate
// processes would) and a coordinator in front of them.
func openFleet(e *serverEnv, dirs []string) (*fleet, error) {
	f := &fleet{shards: make([]*node, len(dirs))}
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			f.shards[i], errs[i] = openNode(e, dir, layerShard)
		}(i, dir)
	}
	wg.Wait()
	m := cluster.Map{Version: 1}
	var firstErr error
	for i, n := range f.shards {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		m.Shards = append(m.Shards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Endpoints: []string{n.l.url}})
	}
	if firstErr != nil {
		f.closeShards()
		return nil, firstErr
	}
	f.coord = cluster.New(m, cluster.Options{Model: e.model, News: e.news})
	l, err := serve(e.tr.wrap(layerCoord, f.coord.Handler()))
	if err != nil {
		f.closeShards()
		return nil, err
	}
	f.l = l
	return f, nil
}

func (f *fleet) closeShards() error {
	var firstErr error
	for _, n := range f.shards {
		if n == nil {
			continue
		}
		if err := n.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (f *fleet) close() error {
	f.l.close()
	return f.closeShards()
}

// copyDir copies a data directory file by file: the image a crash right
// after the last acknowledgement would leave behind.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// client issues single-attempt requests: no retry turns a 503 into a
// slow success, so every failure is counted.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

// do sends one request and returns the status and the whole body. A
// non-2xx status is returned as an error alongside the body.
func (c *client) do(method, url string, body []byte, hdr http.Header) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, out)
	}
	return out, nil
}

func (c *client) get(url string) ([]byte, error) { return c.do(http.MethodGet, url, nil, nil) }

// post sends one batch under its idempotency key.
func (c *client) post(base string, b batch, id string, hdr http.Header) ([]byte, error) {
	h := http.Header{}
	for k, v := range hdr {
		h[k] = v
	}
	h.Set(usaas.BatchIDHeader, id)
	path := "/v1/sessions"
	h.Set("Content-Type", "application/x-ndjson")
	if b.posts {
		path = "/v1/posts"
		h.Set("Content-Type", "application/json")
	}
	return c.do(http.MethodPost, base+path, b.wire, h)
}
