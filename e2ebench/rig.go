package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/telemetry"
	"sww/internal/workload/loadgen"
)

// capableAbility is what a generative client advertises.
const capableAbility = http2.GenFull | http2.GenUpscaleOnly

// traceRing is the server trace ring's size in a traced run, large
// enough that the drain never laps it.
const traceRing = 16384

// loadOut is one load's accounting.
type loadOut struct {
	body int // response body bytes: the page plus every asset
}

// A wrongOutput is a reply the program returned that fails a check.
// It is counted against correctness, unlike a load that failed.
type wrongOutput struct{ err error }

func (w wrongOutput) Error() string { return "wrong output: " + w.err.Error() }

func wrong(err error) error {
	if err == nil {
		return nil
	}
	return wrongOutput{err}
}

// A rig is one set-up instance of a workload: its servers on loopback
// listeners, the two load connections, and what the checks remember.
type rig struct {
	wl    *workload
	specs []*pageSpec
	set   *telemetry.Set // the site server's telemetry
	srv   *core.Server
	proc  *core.PageProcessor // client pipeline (cold-generate)
	edge  *edgeTier           // edge-relay only
	ck    *checker

	clientSocks socketSet // client ends of the load connections
	serverSocks socketSet // server ends they were accepted on

	// load performs one page load: the page and every asset it
	// references.
	load func(ctx context.Context, q loadgen.Request, out *loadOut) error

	closers []func()
}

func newRig(wl *workload, traced bool) *rig {
	r := &rig{wl: wl, set: telemetry.NewSet(), ck: newChecker()}
	if traced {
		r.set.Traces = telemetry.NewTracer(traceRing)
	}
	return r
}

func (r *rig) onClose(f func()) { r.closers = append(r.closers, f) }

// close tears the rig down in reverse order of construction.
func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// serveSite serves srv on a loopback listener whose accepted sockets
// join socks, and returns its address.
func (r *rig) serveSite(srv *core.Server, socks *socketSet) (string, error) {
	l, err := listenLoopback()
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(countingListener{l, socks})
	}()
	r.onClose(func() {
		l.Close()
		<-done
		socks.closeAll()
	})
	return l.Addr().String(), nil
}

// rawConn opens an HTTP/2 connection to addr advertising ability. A
// non-nil socks counts the client end.
func (r *rig) rawConn(addr string, ability http2.GenAbility, socks *socketSet) (*http2.ClientConn, error) {
	c, err := dialLoopback(addr, socks)
	if err != nil {
		return nil, err
	}
	cc, err := http2.NewClientConn(c, http2.Config{GenAbility: ability})
	if err != nil {
		c.Close()
		return nil, err
	}
	r.onClose(func() { cc.Close() })
	return cc, nil
}

// siteClient opens a core.Client to addr over a counted load
// connection; a nil proc makes an incapable client.
func (r *rig) siteClient(addr string, proc *core.PageProcessor) (*core.Client, error) {
	c, err := dialLoopback(addr, &r.clientSocks)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewClient(c, device.Laptop, proc)
	if err != nil {
		c.Close()
		return nil, err
	}
	r.onClose(func() { cl.Close() })
	return cl, nil
}

// reply is one HTTP/2 response as the raw loads see it.
type reply struct {
	status      int
	mode, cache string
	body        []byte
}

func get(ctx context.Context, cc *http2.ClientConn, path string, extra ...hpack.HeaderField) (reply, error) {
	resp, err := cc.GetContext(ctx, path, extra...)
	if err != nil {
		return reply{}, err
	}
	body, err := http2.ReadAllBodyContext(ctx, resp)
	if err != nil {
		return reply{}, err
	}
	rp := reply{status: resp.Status, mode: resp.HeaderValue(core.ModeHeader),
		cache: resp.HeaderValue(core.EdgeCacheHeader), body: body}
	if rp.status != 200 {
		return rp, fmt.Errorf("GET %s: status %d: %.80s", path, rp.status, body)
	}
	return rp, nil
}

// promptLoad is a capable load that renders nothing: the prompt page
// and the assets it references, checked against the spec.
func (r *rig) promptLoad(ctx context.Context, cc *http2.ClientConn, p *pageSpec, out *loadOut) error {
	rp, err := get(ctx, cc, p.path)
	if err != nil {
		return err
	}
	out.body += len(rp.body)
	if err := checkPromptPage(p, rp.mode, rp.body); err != nil {
		return wrong(err)
	}
	for _, src := range imgSrcs(rp.body) {
		a, err := get(ctx, cc, src)
		if err != nil {
			return err
		}
		out.body += len(a.body)
		if err := r.ck.checkAsset(p, false, src, a.body); err != nil {
			return wrong(err)
		}
	}
	return nil
}

// renderedLoad is a load through core.Client.FetchContext: with a
// processor the client generates the page (clientSide), without one
// the server sends it rendered.
func (r *rig) renderedLoad(ctx context.Context, cl *core.Client, clientSide bool, p *pageSpec, out *loadOut) error {
	res, err := cl.FetchContext(ctx, p.path)
	if err != nil {
		return err
	}
	out.body += res.WireBytes
	doc := []byte(res.HTML)
	want, mode := p.renderedSrcs(), core.ModeTraditional
	// A saturated server may answer a capable client with a page's
	// stored originals instead (the shed ladder's policy flip).
	flipped := clientSide && res.Mode == core.ModeTraditional && len(p.originals) > 0
	if clientSide && !flipped {
		want, mode = p.generatedSrcs(), core.ModeGenerative
	}
	clientSide = clientSide && !flipped
	if err := checkRendered(p, res.Mode, mode, doc, want); err != nil {
		return wrong(err)
	}
	return wrong(r.ck.checkAssets(p, clientSide, res.Assets, want))
}

// addPages builds every spec into srv.
func addPages(srv *core.Server, specs []*pageSpec) error {
	for _, s := range specs {
		p, err := s.build()
		if err != nil {
			return err
		}
		srv.AddPage(p)
	}
	return nil
}

// warmAll performs one load of every listed page on a few goroutines;
// set-up uses it to fill caches. Any failure aborts set-up.
func (r *rig) warmAll(pages []int, capable bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const workers = 4
	errs := make(chan error, workers)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				if i >= len(pages) {
					next.Unlock()
					return
				}
				page := pages[i]
				i++
				next.Unlock()
				var out loadOut
				if err := r.load(ctx, loadgen.Request{Page: page, Capable: capable}, &out); err != nil {
					errs <- fmt.Errorf("set-up load of %s: %w", r.specs[page].path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func pageRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// newSiteServer is the generative server every workload's site runs
// on, with the models sww-server uses.
func newSiteServer() (*core.Server, error) {
	return core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
}

// siteOverload keeps the shed ladder out of the workloads: with as
// many generation workers as loads the closed loop keeps in flight, no
// generation queues, so no capable client is flipped to stored
// originals at random, and nothing is shed.
func siteOverload(cacheBytes int64) overload.Config {
	return overload.Config{MaxGenWorkers: 8, QueueDeadline: 30 * time.Second, CacheBytes: cacheBytes}
}

// setupWarm builds warm-serve: every page's rendered form is generated
// during set-up and the generated-content cache holds the corpus, so
// no load generates anything.
func setupWarm(r *rig) error {
	srv, err := newSiteServer()
	if err != nil {
		return err
	}
	srv.SetOverload(siteOverload(-1))
	srv.EnableTelemetry(r.set)
	r.srv = srv
	for i := 0; i < r.wl.pages; i++ {
		r.specs = append(r.specs, warmPage(i))
	}
	if err := addPages(srv, r.specs); err != nil {
		return err
	}
	addr, err := r.serveSite(srv, &r.serverSocks)
	if err != nil {
		return err
	}
	capable, err := r.rawConn(addr, capableAbility, &r.clientSocks)
	if err != nil {
		return err
	}
	incapable, err := r.siteClient(addr, nil)
	if err != nil {
		return err
	}
	r.load = func(ctx context.Context, q loadgen.Request, out *loadOut) error {
		p := r.specs[q.Page]
		if q.Capable {
			return r.promptLoad(ctx, capable, p, out)
		}
		return r.renderedLoad(ctx, incapable, false, p, out)
	}
	if err := r.warmAll(pageRange(r.wl.pages), false); err != nil {
		return err
	}
	if st := srv.OverloadStats(); st.GenRuns != uint64(r.wl.pages) || st.CacheEvictions != 0 {
		return fmt.Errorf("warm-serve set-up ran %d generations and %d evictions, want %d and 0",
			st.GenRuns, st.CacheEvictions, r.wl.pages)
	}
	return nil
}

// coldHead is how many of cold-generate's most popular pages the
// generated-content cache and both artifact caches are sized to hold.
const coldHead = 16

// setupCold builds cold-generate. The caches are sized to the Zipf
// head: the head is generated once with unbounded caches to measure its
// footprint, the caches are rebuilt at that size (plus a quarter for
// slack), and the head is generated again to fill them.
func setupCold(r *rig) error {
	srv, err := newSiteServer()
	if err != nil {
		return err
	}
	srv.SetOverload(siteOverload(-1))
	srv.SetArtifactCacheBytes(1 << 40)
	r.srv = srv
	for i := 0; i < r.wl.pages; i++ {
		r.specs = append(r.specs, coldPage(i))
	}
	if err := addPages(srv, r.specs); err != nil {
		return err
	}
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return err
	}
	proc.Pipeline.Cache = genai.NewArtifactCache(1 << 40)
	r.proc = proc
	addr, err := r.serveSite(srv, &r.serverSocks)
	if err != nil {
		return err
	}
	capable, err := r.siteClient(addr, proc)
	if err != nil {
		return err
	}
	incapable, err := r.siteClient(addr, nil)
	if err != nil {
		return err
	}
	// One device renders one page at a time: core.Client.FetchContext
	// swaps the shared processor's asset fetcher per call, so two
	// overlapping capable loads on one client break each other's
	// upscale placeholders (see README).
	var oneAtATime sync.Mutex
	r.load = func(ctx context.Context, q loadgen.Request, out *loadOut) error {
		p := r.specs[q.Page]
		if q.Capable {
			oneAtATime.Lock()
			defer oneAtATime.Unlock()
			return r.renderedLoad(ctx, capable, true, p, out)
		}
		return r.renderedLoad(ctx, incapable, false, p, out)
	}
	head := pageRange(coldHead)
	fill := func() error {
		if err := r.warmAll(head, false); err != nil {
			return err
		}
		return r.warmAll(head, true)
	}
	if err := fill(); err != nil {
		return err
	}
	slack := func(b int64) int64 { return b + b/4 }
	srv.SetOverload(siteOverload(slack(srv.Overload().Cache().Bytes())))
	srv.SetArtifactCacheBytes(slack(srv.ArtifactCacheStats().Bytes))
	proc.Pipeline.Cache = genai.NewArtifactCache(slack(proc.Pipeline.Cache.Stats().Bytes))
	srv.EnableTelemetry(r.set)
	return fill()
}
