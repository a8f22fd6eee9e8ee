package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/telemetry"
	"sww/internal/workload/loadgen"
)

// Edge-relay shape. Each edge's cache is sized to hold its share of the
// edgeHead most popular pages, so a steady share of loads — the Zipf
// tail — pull from the origin. The misses follow the load sequence, not
// the clock: a TTL short enough to cause them would make the miss
// share, and so the cost of a load, depend on how fast loads come. The
// poll interval backs up push.
const (
	edgeHead         = 32
	edgeTTL          = time.Second
	edgePoll         = 50 * time.Millisecond
	republishEvery   = 25 * time.Millisecond
	republishHead    = 8 // republished pages are drawn from the most popular
	watchInterval    = time.Millisecond
	staleAllowance   = edgeTTL + edgePoll*6/5 // the poller jitters ±20%
	watchGiveUpAfter = 2*staleAllowance + time.Second
)

var edgeNames = []string{"edge-a", "edge-b"}

// incapableHeader makes an edge serve a load as an incapable client
// would see it: edges key their cache on the terminal client's ability
// and forward this header's value upstream.
var incapableHeader = hpack.HeaderField{Name: core.EdgeGenHeader, Value: "0"}

// ability indexes the two forms of a page.
const (
	capableForm = iota
	incapableForm
)

// A version is one published revision of a page: the origin's direct
// reply for each ability, and when the revision was published.
type version struct {
	published time.Time
	body      [2][]byte
}

// edgeTier is edge-relay's origin, edges, and the state its checks
// keep: every revision of every page as the origin served it directly.
type edgeTier struct {
	origin *cdn.Origin
	edges  []*cdn.Edge
	ring   *cdn.Ring
	load   map[string]*http2.ClientConn // per edge: the load connections
	watch  map[string]*http2.ClientConn // per edge: the freshness watcher
	direct *http2.ClientConn            // straight to the origin

	mu       sync.RWMutex
	specs    []*pageSpec // current revision of each page
	versions map[string][]version
	assets   map[string][]byte

	directGets atomic.Int64 // origin requests made by the checks, not the edges

	// Set while tracing: per-request edge latencies by cache outcome.
	timing    atomic.Bool
	timesMu   sync.Mutex
	hit, miss []float64 // µs
	inval     []float64 // ms, republish to first reply with the new revision

	stop chan struct{}
	done chan struct{}
	err  atomic.Pointer[error]
}

// setupEdge builds edge-relay: one origin and two edges, each edge
// with its own load connection, all over loopback.
func setupEdge(r *rig) error {
	srv, err := newSiteServer()
	if err != nil {
		return err
	}
	srv.SetOverload(siteOverload(0))
	r.srv = srv
	origin := cdn.NewOrigin(srv, 0)
	srv.EnableTelemetry(r.set)
	origin.Register(r.set.Registry)
	r.onClose(origin.Close)
	for i := 0; i < r.wl.pages; i++ {
		r.specs = append(r.specs, edgePage(i))
	}
	if err := addPages(srv, r.specs); err != nil {
		return err
	}
	var upstream socketSet
	originAddr, err := r.serveSite(srv, &upstream)
	if err != nil {
		return err
	}
	t := &edgeTier{
		origin:   origin,
		ring:     cdn.NewRing(0, edgeNames...),
		load:     map[string]*http2.ClientConn{},
		watch:    map[string]*http2.ClientConn{},
		specs:    append([]*pageSpec(nil), r.specs...),
		versions: map[string][]version{},
		assets:   map[string][]byte{},
	}
	r.edge = t
	if t.direct, err = r.rawConn(originAddr, capableAbility, nil); err != nil {
		return err
	}
	for _, p := range r.specs {
		if err := t.record(p, time.Time{}); err != nil {
			return err
		}
	}
	head := t.headBytes(r.specs[:edgeHead])
	for k, name := range edgeNames {
		if err := r.startEdge(t, name, int64(k+1), head[name]+head[name]/4, originAddr); err != nil {
			return err
		}
	}
	r.load = func(ctx context.Context, q loadgen.Request, out *loadOut) error {
		return t.relayLoad(ctx, r.specs[q.Page].path, q.Capable, out)
	}
	// Fill both edges with the head in both forms.
	if err := r.warmAll(pageRange(edgeHead), true); err != nil {
		return err
	}
	return r.warmAll(pageRange(edgeHead), false)
}

// headBytes is, per edge, the cache bytes pages take in both forms: the
// origin's reply bodies plus the edge's per-entry overhead (the key,
// which is the path and the ability in at most three digits, and 64
// bytes), each counted on the edge the ring assigns.
func (t *edgeTier) headBytes(pages []*pageSpec) map[string]int64 {
	out := map[string]int64{}
	entry := func(path string, body []byte) {
		out[t.ring.Lookup(path)] += int64(len(body) + len(path) + 4 + 64)
	}
	for _, p := range pages {
		for _, body := range t.versions[p.path][0].body {
			entry(p.path, body)
			for _, src := range imgSrcs(body) {
				entry(src, t.assets[src])
			}
		}
	}
	return out
}

// startEdge runs one edge: a listener for its terminal clients, whose
// sockets are counted, and one for the origin's invalidation pushes.
func (r *rig) startEdge(t *edgeTier, name string, seed, cacheBytes int64, originAddr string) error {
	pushL, err := listenLoopback()
	if err != nil {
		return err
	}
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	origins.Add("origin", func() (net.Conn, error) { return net.Dial("tcp", originAddr) })
	e := cdn.NewEdge(cdn.EdgeConfig{
		Name:           name,
		CacheBytes:     cacheBytes,
		TTL:            edgeTTL,
		PollInterval:   edgePoll,
		Peers:          edgeNames,
		AdvertiseAddr:  pushL.Addr().String(),
		PeerFillFanout: -1,
		Seed:           seed,
		Retry: core.RetryPolicy{MaxAttempts: 2, AttemptTimeout: 5 * time.Second,
			BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: seed},
	}, origins)
	e.Register(telemetry.NewSet().Registry)
	clientL, err := listenLoopback()
	if err != nil {
		pushL.Close()
		return err
	}
	var pushSocks socketSet
	var wg sync.WaitGroup
	accept := func(l net.Listener) {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			e.StartConn(c)
		}
	}
	wg.Add(2)
	go accept(countingListener{clientL, &r.serverSocks})
	go accept(countingListener{pushL, &pushSocks})
	r.onClose(func() {
		clientL.Close()
		pushL.Close()
		wg.Wait()
		e.Close()
		pushSocks.closeAll()
	})
	e.Start()
	t.edges = append(t.edges, e)
	if t.load[name], err = r.rawConn(clientL.Addr().String(), capableAbility, &r.clientSocks); err != nil {
		return err
	}
	// The watcher comes in through the push listener, so its polls stay
	// out of the load sockets' counts.
	t.watch[name], err = r.rawConn(pushL.Addr().String(), capableAbility, nil)
	return err
}

// record fetches page p, in both forms, and the assets each form
// references straight from the origin, and stores them as p's newest
// revision. Callers hold t.mu or run before any load.
func (t *edgeTier) record(p *pageSpec, published time.Time) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v := version{published: published}
	for form, extra := range [][]hpack.HeaderField{capableForm: nil, incapableForm: {incapableHeader}} {
		rp, err := get(ctx, t.direct, p.path, extra...)
		t.directGets.Add(1)
		if err != nil {
			return fmt.Errorf("origin reply for %s: %w", p.path, err)
		}
		v.body[form] = rp.body
		for _, src := range imgSrcs(rp.body) {
			if _, ok := t.assets[src]; ok {
				continue
			}
			a, err := get(ctx, t.direct, src)
			t.directGets.Add(1)
			if err != nil {
				return fmt.Errorf("origin reply for %s: %w", src, err)
			}
			t.assets[src] = a.body
		}
	}
	t.versions[p.path] = append(t.versions[p.path], v)
	return nil
}

// checkPage checks an edge's reply for path against the origin's
// direct replies: it must equal one revision byte for byte, and a
// superseded revision may only be served while the edge could not yet
// know better — within the TTL plus one poll of its successor's
// publication.
func (t *edgeTier) checkPage(path string, form int, sent time.Time, body []byte) error {
	t.mu.RLock()
	vs := t.versions[path]
	t.mu.RUnlock()
	for k := len(vs) - 1; k >= 0; k-- {
		if !bytes.Equal(vs[k].body[form], body) {
			continue
		}
		if k+1 < len(vs) {
			if late := sent.Sub(vs[k+1].published); late > staleAllowance {
				return fmt.Errorf("%s: edge served revision %d of %d, %v after its successor was published",
					path, k, len(vs)-1, late.Round(time.Millisecond))
			}
		}
		return nil
	}
	return fmt.Errorf("%s: edge reply (%d bytes) matches no revision the origin served", path, len(body))
}

// checkAsset checks an edge's asset reply against the origin's.
func (t *edgeTier) checkAsset(path string, body []byte) error {
	t.mu.RLock()
	want, ok := t.assets[path]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("edge served unknown asset %s", path)
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("edge reply for %s differs from the origin's", path)
	}
	return nil
}

// relayLoad is one page load through the edges: the page from the edge
// the ring assigns it, then each asset from the edge assigned to that
// asset.
func (t *edgeTier) relayLoad(ctx context.Context, path string, capable bool, out *loadOut) error {
	form := capableForm
	var extra []hpack.HeaderField
	if !capable {
		form, extra = incapableForm, []hpack.HeaderField{incapableHeader}
	}
	sent := time.Now()
	rp, err := t.timedGet(ctx, path, extra)
	if err != nil {
		return err
	}
	out.body += len(rp.body)
	if err := t.checkPage(path, form, sent, rp.body); err != nil {
		return wrong(err)
	}
	for _, src := range imgSrcs(rp.body) {
		a, err := t.timedGet(ctx, src, extra)
		if err != nil {
			return err
		}
		out.body += len(a.body)
		if err := t.checkAsset(src, a.body); err != nil {
			return wrong(err)
		}
	}
	return nil
}

// timedGet fetches path from its ring-assigned edge, recording the
// request's latency by cache outcome while tracing.
func (t *edgeTier) timedGet(ctx context.Context, path string, extra []hpack.HeaderField) (reply, error) {
	start := time.Now()
	rp, err := get(ctx, t.load[t.ring.Lookup(path)], path, extra...)
	if err != nil || !t.timing.Load() {
		return rp, err
	}
	us := float64(time.Since(start)) / float64(time.Microsecond)
	t.timesMu.Lock()
	switch rp.cache {
	case "hit":
		t.hit = append(t.hit, us)
	case "miss":
		t.miss = append(t.miss, us)
	}
	t.timesMu.Unlock()
	return rp, nil
}

// startRepublishing runs the seeded republish stream until stop: every
// republishEvery one of the most popular pages gets a new revision
// (Server.AddPage, then Origin.Invalidate), and a watcher polls the
// page's edge until the new revision shows.
func (t *edgeTier) startRepublishing(srv *core.Server, seed int64) {
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(t.done)
		tick := time.NewTicker(republishEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			if err := t.republish(srv, rng.Intn(republishHead)); err != nil {
				t.err.CompareAndSwap(nil, &err)
				return
			}
		}
	}()
}

// stopRepublishing stops the stream and returns its first error.
func (t *edgeTier) stopRepublishing() error {
	close(t.stop)
	<-t.done
	if p := t.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *edgeTier) republish(srv *core.Server, i int) error {
	t.mu.Lock()
	next := *t.specs[i]
	next.rev++
	page, err := next.build()
	if err != nil {
		t.mu.Unlock()
		return err
	}
	srv.AddPage(page)
	published := time.Now()
	err = t.record(&next, published)
	t.specs[i] = &next
	vs := t.versions[next.path]
	t.mu.Unlock()
	if err != nil {
		return err
	}
	invalidated := time.Now()
	t.origin.Invalidate([]string{next.path})
	want := vs[len(vs)-1].body[capableForm]
	cc := t.watch[t.ring.Lookup(next.path)]
	ctx, cancel := context.WithTimeout(context.Background(), watchGiveUpAfter)
	defer cancel()
	for {
		rp, err := get(ctx, cc, next.path)
		if err != nil {
			return fmt.Errorf("watching %s: %w", next.path, err)
		}
		if bytes.Equal(rp.body, want) {
			break
		}
		select {
		case <-ctx.Done():
			return wrong(fmt.Errorf("%s: revision %d not served %v after publication", next.path, next.rev, watchGiveUpAfter))
		case <-time.After(watchInterval):
		}
	}
	if t.timing.Load() {
		t.timesMu.Lock()
		t.inval = append(t.inval, float64(time.Since(invalidated))/float64(time.Millisecond))
		t.timesMu.Unlock()
	}
	return nil
}
