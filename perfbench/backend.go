package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dnnparallel"
	"dnnparallel/internal/serve"
)

// result is one op's outcome: its answer, its latency (the socket round
// trip for serve-mix, the façade calls otherwise; answer checking is
// not part of it), and whether the server answered from its cache.
type result struct {
	ans answer
	lat time.Duration
	hit bool
}

// backend executes the ops of a workload against one program instance.
type backend interface {
	// start brings up a cold instance: a fresh server with an empty
	// cache for serve-mix, nothing for the façade.
	start() error
	// do sends input i as op number op; a non-nil tr records its spans.
	do(i, op int, tr *tracer) (result, error)
	stop()
}

func newBackend(w *workload) backend {
	if w.serve {
		return newServeBackend(w)
	}
	return &facadeBackend{w: w}
}

// facadeBackend runs DecodeScenario → Plan → json.Marshal in process,
// the path every CLI takes.
type facadeBackend struct{ w *workload }

func (d *facadeBackend) start() error { return nil }
func (d *facadeBackend) stop()        {}

func (d *facadeBackend) do(i, op int, tr *tracer) (result, error) {
	in := &d.w.inputs[i]
	t0 := time.Now()
	root := tr.begin("op", -1, op)
	sp := tr.begin("scenario.decode", root, op)
	sc, err := dnnparallel.DecodeScenario(in.body)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return result{}, err
	}
	sp = tr.begin("dnnparallel.plan", root, op)
	res, err := dnnparallel.Plan(sc)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		var ie *dnnparallel.InfeasibleError
		if errors.As(err, &ie) {
			return result{ans: answer{status: http.StatusUnprocessableEntity}, lat: time.Since(t0)}, nil
		}
		return result{}, err
	}
	sp = tr.begin("render.json", root, op)
	_, err = json.Marshal(res)
	tr.end(sp)
	tr.end(root)
	lat := time.Since(t0)
	if err != nil {
		return result{}, err
	}
	ans, err := planAnswer(res)
	return result{ans: ans, lat: lat}, err
}

// serveBackend posts each op to a dnnserve handler (serve.New with the
// default 128-entry cache) served on a 127.0.0.1 listener in this
// process, over one keep-alive connection.
type serveBackend struct {
	w      *workload
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	base   string
	body   bytes.Buffer
	// requests counts the plan and simulate requests sent to srv, for
	// the hits + misses + coalesced = requests identity.
	requests int64

	// seen[c] is the hash of the last response body verified for
	// canonical input c and ans[c] its parsed answer: a cache hit
	// returns the same bytes, so only new bodies are parsed.
	seed maphash.Seed
	seen []uint64
	ans  []answer

	// The handler-side span of a traced request hangs off the client's
	// op span; the client sets these before each request.
	tr     atomic.Pointer[tracer]
	parent atomic.Int64
	op     atomic.Int64
}

func newServeBackend(w *workload) *serveBackend {
	return &serveBackend{w: w, seed: maphash.MakeSeed()}
}

func (d *serveBackend) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on 127.0.0.1: %w", err)
	}
	d.srv = serve.New(serve.Config{})
	h := d.srv.Handler()
	d.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tr.Load()
		sp := tr.begin("serve.handler", int(d.parent.Load()), int(d.op.Load()))
		h.ServeHTTP(w, r)
		tr.end(sp)
	})}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	d.base = "http://" + ln.Addr().String()
	d.requests = 0
	d.seen = make([]uint64, len(d.w.inputs))
	d.ans = make([]answer, len(d.w.inputs))
	return nil
}

// stop closes the server and waits for its serve loop to end.
func (d *serveBackend) stop() {
	if d.hs == nil {
		return
	}
	d.client.CloseIdleConnections()
	_ = d.hs.Close()
	<-d.served
	d.hs = nil
}

func (d *serveBackend) do(i, op int, tr *tracer) (result, error) {
	in := &d.w.inputs[i]
	req, err := http.NewRequest(http.MethodPost, d.base+in.path, bytes.NewReader(in.body))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	sp := tr.begin("op", -1, op)
	d.tr.Store(tr)
	d.parent.Store(int64(sp))
	d.op.Store(int64(op))
	resp, err := d.client.Do(req)
	if err != nil {
		tr.end(sp)
		return result{}, err
	}
	d.body.Reset()
	_, err = d.body.ReadFrom(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	lat := time.Since(t0)
	d.requests++
	if err != nil {
		return result{}, fmt.Errorf("reading %s response: %w", in.path, err)
	}
	r := result{lat: lat, hit: resp.Header.Get("X-Cache") == "hit", ans: answer{status: resp.StatusCode}}
	if resp.StatusCode != http.StatusOK {
		return r, nil
	}
	h := maphash.Bytes(d.seed, d.body.Bytes())
	if d.seen[in.canon] == h && d.ans[in.canon].status == http.StatusOK {
		r.ans = d.ans[in.canon]
		return r, nil
	}
	if r.ans, err = wireAnswer(in.path, d.body.Bytes()); err != nil {
		return r, err
	}
	d.seen[in.canon], d.ans[in.canon] = h, r.ans
	return r, nil
}

// checkIdentity verifies the server's cache accounting against the
// requests this backend sent it.
func (d *serveBackend) checkIdentity() error {
	st := d.srv.Stats()
	if st.Hits+st.Misses+st.Coalesced != d.requests {
		return fmt.Errorf("cache identity broken: hits %d + misses %d + coalesced %d != requests %d",
			st.Hits, st.Misses, st.Coalesced, d.requests)
	}
	return nil
}
