package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptbsim"
	"ptbsim/internal/serve"
	"ptbsim/internal/store"
)

// serve-mixed drives an in-process ptbserve stack — a digest-verified
// store used as both result cache and result store, the jobs.wal journal,
// the telemetry hub — over loopback with two closed-loop clients.
const (
	servePar        = 2    // simulation workers, as on a 2-CPU host
	serveClients    = 2    // closed-loop clients
	perClientPass   = 200  // requests each client sends per pass
	hotShare        = 0.80 // POST /v1/runs for a warmed configuration
	getShare        = 0.05 // GET /v1/results/{sha}
	sharedFreshFrac = 0.5  // of fresh runs, the share both clients ask for at once
)

// serveHot is the hot set, warmed during set-up. It and the fresh pool
// are two-core runs at the shortest scale; their digests are pinned in
// expected/serve.txt.
func serveHot() []ptbsim.Config {
	var out []ptbsim.Config
	for _, b := range ptbsim.Benchmarks() {
		out = append(out,
			ptbsim.Config{Benchmark: b.Name, Cores: 2, Technique: ptbsim.None, WorkloadScale: 0.02},
			ptbsim.Config{Benchmark: b.Name, Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic, WorkloadScale: 0.02})
	}
	return out
}

// freshPoolSize bounds how many distinct fresh configurations one run can
// use; a run stops early rather than repeat one. At about 45 per pass it
// lasts about 60 passes.
const freshPoolSize = 4000

// serveFresh is the fresh pool: every benchmark × technique at budgets
// 0.3000–0.6999 on a 1e-4 grid. The cache key keeps four decimals, so
// every member is a distinct key, and none is a hot-set key (those leave
// the budget unset).
func serveFresh() []ptbsim.Config {
	bs := ptbsim.Benchmarks()
	ts := ptbsim.TechniqueNames()
	out := make([]ptbsim.Config, freshPoolSize)
	for j := range out {
		c := ptbsim.Config{Benchmark: bs[j%len(bs)].Name, Cores: 2,
			Technique:     ptbsim.Technique(ts[(j/len(bs))%len(ts)]),
			BudgetFrac:    float64(3000+j) / 1e4,
			WorkloadScale: 0.02}
		if c.Technique == ptbsim.PTB || c.Technique == ptbsim.PTBSpinGate {
			c.Policy = ptbsim.Dynamic
		}
		out[j] = c
	}
	return out
}

// request kinds.
const (
	kindHot   = "hot"
	kindGet   = "get"
	kindFresh = "fresh"
)

// serveWorkload is the serve-mixed workload.
type serveWorkload struct {
	seed int64

	hot      []ptbsim.Config
	hotBody  [][]byte
	hotFrag  []string // digest fragment of each hot result
	fresh    []ptbsim.Config
	freshOrd []int // seeded order the fresh pool is used in
	chk      *checker

	// Per set-up state.
	dir     string // temporary directory holding the store and journal
	st      *store.Store
	jr      *store.Journal
	exp     *ptbsim.Experiment
	httpSrv *http.Server
	srvDone chan struct{}
	base    string
	client  *http.Client
	cache   *timedCache

	clients   []*serveClient
	sched     *rand.Rand   // draws each pass's slot schedule
	sharedPos int          // next index into the shared fresh sequence
	nextReq   atomic.Int64 // request IDs, for matching client and handler spans
}

type serveClient struct {
	id      int
	rng     *rand.Rand // the client's own draws from the hot set
	privPos int        // next index into the client's own fresh sequence
}

func newServeMixed(seed int64) *serveWorkload {
	return &serveWorkload{seed: seed}
}

func (w *serveWorkload) parallelism() int { return servePar }

// prepare loads the pinned digests and builds the request bodies.
func (w *serveWorkload) prepare(context.Context) error {
	exp, err := loadExpected("serve.txt")
	if err != nil {
		return err
	}
	w.chk = &checker{expected: exp}
	w.hot, w.fresh = serveHot(), serveFresh()
	for _, c := range append(append([]ptbsim.Config(nil), w.hot...), w.fresh...) {
		if _, ok := exp[configID(c)]; !ok {
			return fmt.Errorf("serve.txt: no pinned digest for %s", configID(c))
		}
	}
	for _, c := range w.hot {
		w.hotBody = append(w.hotBody, runBody(c))
		w.hotFrag = append(w.hotFrag, fragment(exp[configID(c)]))
	}
	w.freshOrd = rand.New(rand.NewSource(^w.seed)).Perm(len(w.fresh))
	return nil
}

// setup starts the stack on a new, empty store and warms the hot set
// through it with both clients, as ptbload would, so every hot
// configuration is simulated, stored and journalled before the first
// pass.
func (w *serveWorkload) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(benchDir(), "serve-"); err != nil {
		return err
	}
	if w.st, err = store.Open(w.dir); err != nil {
		return err
	}
	if w.jr, _, err = store.OpenJournal(filepath.Join(w.dir, "jobs.wal")); err != nil {
		return err
	}
	w.cache = &timedCache{st: w.st, labels: make(map[string]string)}
	hub := serve.NewHub()
	w.exp = ptbsim.NewExperiment(
		ptbsim.WithScale(0.25),
		ptbsim.WithParallelism(servePar),
		ptbsim.WithQueue(1024),
		ptbsim.WithObserver(0, hub),
		ptbsim.WithCache(w.cache))
	srv := serve.New(w.exp, w.st, hub)
	srv.AttachJournal(w.jr) // new and empty: nothing to replay
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	w.httpSrv = &http.Server{Handler: w.handler(srv.Handler())}
	w.srvDone = make(chan struct{})
	go func() {
		defer close(w.srvDone)
		_ = w.httpSrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.sched = rand.New(rand.NewSource(w.seed))
	w.sharedPos = 0
	w.clients = nil
	for i := 0; i < serveClients; i++ {
		w.clients = append(w.clients, &serveClient{id: i,
			rng: rand.New(rand.NewSource(w.seed*1000 + int64(i) + 1))})
	}
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := ci; i < len(w.hot); i += serveClients {
				o := w.do(ctx, nil, kindHot, i)
				if o.err != nil {
					errs[ci] = fmt.Errorf("warming %s: %w", configID(w.hot[i]), o.err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cleanup stops the server and removes the store. Teardown errors are
// dropped: the store is temporary and removed.
func (w *serveWorkload) cleanup() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if w.httpSrv != nil {
		_ = w.httpSrv.Shutdown(ctx)
		<-w.srvDone
		w.httpSrv = nil
		w.client.CloseIdleConnections()
	}
	if w.exp != nil {
		_ = w.exp.Drain(ctx)
		w.exp.Close()
		w.exp = nil
	}
	if w.jr != nil {
		_ = w.jr.Close()
		w.jr = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// runBody is the POST /v1/runs request for c.
func runBody(c ptbsim.Config) []byte {
	data, err := json.Marshal(map[string]ptbsim.Config{"config": c})
	if err != nil {
		panic(err) // see configID
	}
	return data
}

// fragment is the sha= tail of a digest line.
func fragment(digest string) string {
	_, f, _ := strings.Cut(digest, " sha=")
	return f
}

// runReply is the subset of ptbserve's run response the benchmark reads.
// Decoding Result re-verifies the digest embedded in the wire form.
type runReply struct {
	Result    *ptbsim.Result `json:"result"`
	Digest    string         `json:"digest"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	Error     string         `json:"error"`
}

// Request headers the traced handler wrapper reads.
const (
	hdrReq   = "X-Perfbench-Req"
	hdrLabel = "X-Perfbench-Label"
)

// handler wraps the server's handler to time each request server-side
// when the pass is traced.
func (w *serveWorkload) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.cache.tracer()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		t0 := tr.now()
		h.ServeHTTP(rw, r)
		tr.record(span{Name: "serve.handler", Key: r.Header.Get(hdrLabel),
			Tag: r.Header.Get(hdrReq), Start: t0, End: tr.now()})
	})
}

// do sends one request and checks its answer. idx indexes w.hot for hot
// and get requests, w.fresh for fresh ones.
func (w *serveWorkload) do(ctx context.Context, tr *tracer, kind string, idx int) op {
	id := strconv.FormatInt(w.nextReq.Add(1), 10)
	var (
		req *http.Request
		err error
		cfg ptbsim.Config
	)
	switch kind {
	case kindGet:
		cfg = w.hot[idx]
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/results/"+w.hotFrag[idx], nil)
	case kindHot:
		cfg = w.hot[idx]
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/runs", bytes.NewReader(w.hotBody[idx]))
	default:
		cfg = w.fresh[idx]
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/runs", bytes.NewReader(runBody(cfg)))
	}
	if err != nil {
		return op{class: kind, err: err}
	}
	if tr != nil {
		req.Header.Set(hdrReq, id)
		req.Header.Set(hdrLabel, label(w.chk.expected[configID(cfg)]))
	}
	t0 := time.Now()
	reply, err := w.roundTrip(req)
	o := op{ms: float64(time.Since(t0)) / 1e6, kind: kind, class: classFresh, err: err, cfg: cfg, reqID: id}
	if err != nil {
		return o
	}
	switch {
	case kind == kindGet || reply.Cached:
		o.class = classCached
	case reply.Coalesced:
		o.class = classCoalesced
	default:
		o.res = reply.Result
	}
	if err := w.chk.check(cfg, reply.Result); err != nil {
		o.err = err
	} else if reply.Digest != fragment(reply.Result.Digest()) {
		o.err = fmt.Errorf("%s: digest fragment %q does not match result", configID(cfg), reply.Digest)
	}
	return o
}

func (w *serveWorkload) roundTrip(req *http.Request) (runReply, error) {
	var reply runReply
	resp, err := w.client.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return reply, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if reply.Result == nil {
		return reply, fmt.Errorf("%s %s: no result (%s)", req.Method, req.URL.Path, reply.Error)
	}
	return reply, nil
}

// slot is one step of a pass's request schedule. Both clients follow the
// same schedule of kinds, each drawing its own hot configuration, so they
// stay in step; at a shared fresh slot they meet and ask for the same new
// configuration at once, and the scheduler coalesces the second ask.
type slot struct {
	kind   string
	shared bool
	fresh  int // w.fresh index of a shared slot's configuration
}

// schedule draws the next pass's slots. ok is false when the fresh pool
// lacks room for them.
func (w *serveWorkload) schedule() (slots []slot, ok bool) {
	half := len(w.freshOrd) / 2 // shared sequence; each client owns a quarter of the rest
	shared, private := w.sharedPos, 0
	for i := 0; i < perClientPass; i++ {
		r := w.sched.Float64()
		switch {
		case r < hotShare:
			slots = append(slots, slot{kind: kindHot})
		case r < hotShare+getShare:
			slots = append(slots, slot{kind: kindGet})
		case w.sched.Float64() < sharedFreshFrac:
			slots = append(slots, slot{kind: kindFresh, shared: true, fresh: w.freshOrd[shared%half]})
			shared++
		default:
			slots = append(slots, slot{kind: kindFresh})
			private++
		}
	}
	for _, c := range w.clients {
		if shared > half || c.privPos+private > half/serveClients {
			return nil, false
		}
	}
	w.sharedPos = shared
	return slots, true
}

// errPoolDone ends a run whose fresh pool is used up.
var errPoolDone = errors.New("fresh configuration pool used up")

func (w *serveWorkload) pass(ctx context.Context, tr *tracer) (passStats, error) {
	slots, ok := w.schedule()
	if !ok {
		return passStats{}, errPoolDone
	}
	w.cache.setTracer(tr)
	defer w.cache.setTracer(nil)
	walBefore := fileSize(filepath.Join(w.dir, "jobs.wal"))
	ops := make([][]op, serveClients)
	meet := newBarrier(serveClients)
	half := len(w.freshOrd) / 2
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range w.clients {
		wg.Add(1)
		go func(ci int, c *serveClient) {
			defer wg.Done()
			for _, sl := range slots {
				idx := sl.fresh
				switch {
				case sl.kind != kindFresh:
					idx = c.rng.Intn(len(w.hot))
				case sl.shared:
					meet.wait()
				default:
					idx = w.freshOrd[half+c.id*(half/serveClients)+c.privPos]
					c.privPos++
				}
				ops[ci] = append(ops[ci], w.do(ctx, tr, sl.kind, idx))
			}
		}(ci, c)
	}
	wg.Wait()
	ps := passStats{wall: time.Since(start)}
	for ci := range ops {
		ps.ops = append(ps.ops, ops[ci]...)
	}
	for _, o := range ps.ops {
		if o.res != nil && o.err == nil {
			ps.fresh = append(ps.fresh, o.res)
		}
	}
	ps.walBytes = fileSize(filepath.Join(w.dir, "jobs.wal")) - walBefore
	return ps, nil
}

// barrier releases its n parties together, once all have arrived; it can
// be reused.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	gen     int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.here++
	if b.here == b.n {
		b.here = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// fileSize is the size of path, 0 when it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// layerMetrics reports the serving layers from the traced pass: handler
// self time on hits, the store wrapper's spans, the journal's growth and
// the scheduler's coalescing, plus the skip-ahead share and set-up time of
// the fresh runs, re-simulated through simDirect.
func (w *serveWorkload) layerMetrics(ctx context.Context, tr *tracer, passes []passStats) (map[string]float64, []error) {
	m := make(map[string]float64)
	var posts, coalesced, hits int
	var walBytes int64
	var ops []op
	for _, ps := range passes {
		ops = append(ops, ps.ops...)
		walBytes += ps.walBytes
	}
	hitReq := make(map[string]bool)
	for _, o := range ops {
		if o.kind != kindGet {
			posts++
		}
		if o.class == classCoalesced {
			coalesced++
		}
		if o.kind == kindHot && o.class == classCached {
			hitReq[o.reqID] = true
		}
	}
	m["sched.coalesced_frac"] = ratio(float64(coalesced), float64(posts))
	m["store.journal_bytes_per_req"] = ratio(float64(walBytes), float64(len(ops)))

	gets := tr.byName("store.get")
	for _, g := range gets {
		if g.Tag == "hit" {
			hits++
		}
	}
	m["store.hit_frac"] = ratio(float64(hits), float64(len(gets)))
	m["store.get_us_p50"] = median(tr.durationsUS("store.get"))
	m["store.put_us_p50"] = median(tr.durationsUS("store.put"))

	// Store spans carry the cache key, handler spans the digest label of
	// the configuration asked for (unique within the hot set). Every hot
	// configuration was Put during set-up, which taught the wrapper each
	// key's label.
	for i := range gets {
		gets[i].Key = w.cache.configOf(gets[i].Key)
	}
	var handlers []span
	for _, h := range tr.byName("serve.handler") {
		if hitReq[h.Tag] {
			handlers = append(handlers, h)
		}
	}
	kids := adopt(handlers, gets)
	var self []float64
	for _, h := range handlers {
		self = append(self, float64(selfTime(h, kids[h.ID]))/1e3)
	}
	m["serve.hit_self_us_p50"] = median(self)

	// Re-simulate every fresh configuration the first traced pass asked
	// for, whatever the server answered, for the simulator-side numbers
	// the server does not expose. The set depends only on the seed, so
	// the work counts taken from it repeat exactly.
	seen := make(map[string]bool)
	var cfgs []ptbsim.Config
	for _, o := range passes[0].ops {
		if id := configID(o.cfg); o.kind == kindFresh && !seen[id] {
			seen[id] = true
			cfgs = append(cfgs, o.cfg)
		}
	}
	sm, failed := resimulate(ctx, cfgs, servePar, w.chk, tr)
	for k, v := range sm {
		m[k] = v
	}
	return m, failed
}

// timedCache wraps the store as the experiment's result cache, timing
// every Get and Put while a tracer is set.
type timedCache struct {
	st *store.Store
	tr atomic.Pointer[tracer]

	mu     sync.Mutex
	labels map[string]string // cache key → digest label, learned from Put
}

func (c *timedCache) setTracer(tr *tracer) { c.tr.Store(tr) }

func (c *timedCache) tracer() *tracer { return c.tr.Load() }

func (c *timedCache) configOf(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labels[key]
}

func (c *timedCache) Get(key string) (*ptbsim.Result, bool) {
	tr := c.tracer()
	if tr == nil {
		return c.st.Get(key)
	}
	t0 := tr.now()
	r, ok := c.st.Get(key)
	tag := "miss"
	if ok {
		tag = "hit"
	}
	tr.record(span{Name: "store.get", Key: key, Tag: tag, Start: t0, End: tr.now()})
	return r, ok
}

func (c *timedCache) Put(key string, r *ptbsim.Result) {
	tr := c.tracer()
	t0 := tr.now()
	c.st.Put(key, r)
	tr.record(span{Name: "store.put", Key: key, Start: t0, End: tr.now()})
	c.mu.Lock()
	c.labels[key] = label(r.Digest())
	c.mu.Unlock()
}

func (c *timedCache) Len() int { return c.st.Len() }
