package main

import (
	"bytes"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
	"github.com/tactic-icn/tactic/internal/workload"
)

const (
	edgeID = "edge-0"
	coreID = "core-0"
	// fetchTimeout is the paper's consumer request timeout; the client
	// splits it over its three send attempts.
	fetchTimeout = time.Second
	// writeTimeout is tacticd's default per-frame write deadline.
	writeTimeout = 10 * time.Second
	// zipfAlpha is the paper's popularity exponent.
	zipfAlpha = 0.7
	// tagTTL outlives every run, so clients register once per set-up.
	tagTTL = time.Hour

	contentLevel core.AccessLevel = 2
	clientLevel  core.AccessLevel = 3

	// setups is how many times a --trace 0 run sets up; setup_s is the
	// median.
	setups = 3
	// binWidth is the interval over which fetch_rate and cpu_us_per_fetch
	// are sampled; each is reported as the median over the window's bins.
	binWidth = 500 * time.Millisecond
)

var providerPrefix = names.MustNew("prov0")

// liveConfig shapes one live workload.
type liveConfig struct {
	name string
	// udp selects udp:// faces on every hop (TCP otherwise).
	udp bool
	// catalog is the number of chunks published; chunkBytes their
	// plaintext size.
	catalog, chunkBytes int
	// clients is the number of client connections, each running window
	// closed-loop fetchers.
	clients, window int
	// warmAll fetches every chunk once during set-up (the catalog fits
	// the edge content store); otherwise warmFetches Zipf fetches warm
	// the caches.
	warmAll     bool
	warmFetches int
	// floodRate is the attacker face's offered rate of forged-tag
	// Interests per second.
	floodRate float64
	// flood is true for the workload that runs an attacker face; a zero
	// floodRate on it makes the shed gate fail.
	flood bool
}

// liveWorkload returns the configuration of a named live workload.
func liveWorkload(name string) (liveConfig, error) {
	switch name {
	case "edge_hit":
		return liveConfig{name: name, catalog: 1000, chunkBytes: 100, clients: 2, window: 5, warmAll: true}, nil
	case "upstream_udp":
		return liveConfig{name: name, udp: true, catalog: 30000, chunkBytes: 4096, clients: 2, window: 5, warmFetches: 5000}, nil
	case "verify_flood":
		return liveConfig{name: name, catalog: 1000, chunkBytes: 100, clients: 1, window: 5, warmAll: true,
			flood: true, floodRate: 20000}, nil
	}
	return liveConfig{}, fmt.Errorf("no live workload %q", name)
}

// material is the provider identity and its signed catalog: the part
// of set-up a traced re-boot reuses.
type material struct {
	registry *pki.Registry
	provKey  *pki.ECDSAKeyPair
	provider *core.Provider
	names    []names.Name
	// chunks are the contents as published, served by the producer.
	chunks []*core.Content
	// want[k] is what a fetch of names[k] must deliver. It aliases
	// chunks; tests replace an entry to prove the payload gate fires.
	want []*core.Content
}

// newMaterial generates the provider key and publishes the catalog,
// with payload bytes drawn from seed.
func newMaterial(cfg liveConfig, seed int64) (*material, error) {
	provKey, err := pki.GenerateECDSA(crand.Reader, providerPrefix.MustAppend("KEY", "1"))
	if err != nil {
		return nil, err
	}
	registry := pki.NewRegistry()
	if err := registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		return nil, err
	}
	provider, err := core.NewProvider(providerPrefix, provKey, tagTTL, crand.Reader)
	if err != nil {
		return nil, err
	}
	m := &material{registry: registry, provKey: provKey, provider: provider}
	rng := rand.New(rand.NewSource(seed))
	plain := make([]byte, cfg.chunkBytes)
	for k := 0; k < cfg.catalog; k++ {
		rng.Read(plain)
		name := providerPrefix.MustAppend("cat", "c"+strconv.Itoa(k))
		c, err := provider.Publish(name, contentLevel, plain)
		if err != nil {
			return nil, err
		}
		m.names = append(m.names, name)
		m.chunks = append(m.chunks, c)
	}
	m.want = append([]*core.Content(nil), m.chunks...)
	return m, nil
}

// nodeTracers are the traced run's tracers, one flight recorder per
// node; nil fields leave that node untraced.
type nodeTracers struct {
	client, edge, core, producer *obs.Tracer
}

// Flight-recorder sizes for the traced run: the client ring holds the
// traces analysed; each node ring is large enough to still hold every
// span of those traces.
const (
	clientRing = 1 << 16
	nodeRing   = 1 << 18
)

func newNodeTracers() *nodeTracers {
	mk := func(node, role string, ring int) *obs.Tracer {
		t := obs.NewTracerRecorder(node, 1.0, nil, obs.NewRecorder(ring))
		t.SetRole(role)
		return t
	}
	return &nodeTracers{
		client:   mk("client", "client", clientRing),
		edge:     mk(edgeID, "edge", nodeRing),
		core:     mk(coreID, "core", nodeRing),
		producer: mk("producer", "producer", nodeRing),
	}
}

// liveNet is one booted deployment:
//
//	clients —— edge —— core —— producer
//
// plus, on the flood workload, an attacker face into the edge.
type liveNet struct {
	cfg      liveConfig
	m        *material
	producer *forwarder.Producer
	core     *forwarder.Forwarder
	edge     *forwarder.Forwarder
	// Each node's registry, scraped the way an operator scrapes
	// /metrics.
	edgeReg, coreReg, prodReg *obs.Registry
	clients                   []*forwarder.Client
	attacker                  *attacker

	closers []func()
	serving sync.WaitGroup
}

// boot starts the nodes, dials and registers fresh clients, and warms
// the caches. tr is nil for an untraced deployment.
func boot(cfg liveConfig, m *material, seed int64, tr *nodeTracers) (n *liveNet, err error) {
	n = &liveNet{cfg: cfg, m: m,
		edgeReg: obs.NewRegistry(), coreReg: obs.NewRegistry(), prodReg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if tr == nil {
		tr = &nodeTracers{}
	}
	scheme := ""
	if cfg.udp {
		scheme = "udp://"
	}
	// listen starts serve on a fresh loopback listener. Closers run in
	// reverse, so each listener closes before the node that serves it:
	// a producer's datagram faces end only when their endpoint closes.
	listen := func(serve func(transport.FaceListener) error) (string, error) {
		l, err := transport.ListenFace(scheme+"127.0.0.1:0", transport.UDPOptions{})
		if err != nil {
			return "", err
		}
		n.serving.Add(1)
		go func() {
			defer n.serving.Done()
			serve(l) //nolint:errcheck // returns once the listener closes
		}()
		n.closers = append(n.closers, func() { l.Close() })
		return scheme + l.Addr().String(), nil
	}

	n.producer, err = forwarder.NewProducer(m.provider, m.registry, nil)
	if err != nil {
		return n, err
	}
	n.producer.Instrument(n.prodReg)
	n.producer.SetTracer(tr.producer)
	for _, c := range m.chunks {
		n.producer.AddContent(c)
	}
	n.closers = append(n.closers, func() { n.producer.Close() })
	prodAddr, err := listen(n.producer.ServeFaces)
	if err != nil {
		return n, err
	}

	startNode := func(id string, role forwarder.Role, reg *obs.Registry, t *obs.Tracer, upstream string, nodeSeed int64) (*forwarder.Forwarder, string, error) {
		f, err := forwarder.New(forwarder.Config{
			ID: id, Role: role, Registry: m.registry, Seed: nodeSeed,
			WriteTimeout: writeTimeout, Obs: reg, Tracer: t,
		})
		if err != nil {
			return nil, "", err
		}
		n.closers = append(n.closers, func() { f.Close() })
		addr, err := listen(f.ServeFaces)
		if err != nil {
			return f, "", err
		}
		up, err := f.DialUpstream(upstream)
		if err != nil {
			return f, "", err
		}
		f.AddRoute(providerPrefix, up)
		return f, addr, nil
	}
	var coreAddr, edgeAddr string
	if n.core, coreAddr, err = startNode(coreID, forwarder.RoleCore, n.coreReg, tr.core, prodAddr, seed+1); err != nil {
		return n, err
	}
	if n.edge, edgeAddr, err = startNode(edgeID, forwarder.RoleEdge, n.edgeReg, tr.edge, coreAddr, seed+2); err != nil {
		return n, err
	}

	for c := 0; c < cfg.clients; c++ {
		user := "u" + strconv.Itoa(c)
		key, err := pki.GenerateECDSA(crand.Reader, names.MustNew("users", user, "KEY", "1"))
		if err != nil {
			return n, err
		}
		identity, err := core.NewClient(key, crand.Reader)
		if err != nil {
			return n, err
		}
		m.provider.Enroll(identity.KeyLocator(), key.Public(), clientLevel)
		cl, err := forwarder.Dial(edgeAddr, identity, user, edgeID)
		if err != nil {
			return n, err
		}
		n.closers = append(n.closers, func() { cl.Close() })
		cl.SetTracer(tr.client, 1)
		if err := cl.Register(providerPrefix, fetchTimeout); err != nil {
			return n, fmt.Errorf("register %s: %w", user, err)
		}
		n.clients = append(n.clients, cl)
	}

	var warm *loadStats
	if cfg.warmAll {
		var next atomic.Int64
		warm = n.drive(seed, func(*rand.Rand) (int, bool) {
			k := int(next.Add(1) - 1)
			return k, k < cfg.catalog
		}, nil, nil)
	} else {
		var issued atomic.Int64
		z, err := workload.NewZipf(cfg.catalog, zipfAlpha)
		if err != nil {
			return n, err
		}
		warm = n.drive(seed^0x5eed, func(rng *rand.Rand) (int, bool) {
			return z.Sample(rng), issued.Add(1) <= int64(cfg.warmFetches)
		}, nil, nil)
	}
	if warm.failed > 0 {
		return n, fmt.Errorf("warm-up: %d of %d fetches failed (%s)", warm.failed, warm.ok+warm.failed, warm.failureSummary())
	}

	if cfg.flood {
		n.attacker, err = startAttacker(edgeAddr, m, cfg.floodRate, seed)
		if err != nil {
			return n, err
		}
		n.closers = append(n.closers, n.attacker.close)
		// Let the flood fill the edge's admission budget before the
		// window opens, so the window measures the steady flooded state.
		time.Sleep(300 * time.Millisecond)
	}
	return n, nil
}

// close tears the deployment down in reverse start order and waits for
// the serving goroutines.
func (n *liveNet) close() {
	for i := len(n.closers) - 1; i >= 0; i-- {
		n.closers[i]()
	}
	n.closers = nil
	n.serving.Wait()
}

// busySet keeps one client's in-flight names distinct: the client keys
// pending requests by name, so two outstanding fetches of one name
// would collide.
type busySet struct {
	mu   sync.Mutex
	busy map[int]bool
}

func (b *busySet) acquire(k int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.busy[k] {
		return false
	}
	b.busy[k] = true
	return true
}

func (b *busySet) release(k int) {
	b.mu.Lock()
	delete(b.busy, k)
	b.mu.Unlock()
}

// loadStats tallies one drive of the closed-loop fetchers.
type loadStats struct {
	ok, failed int64
	// mismatches counts delivered payloads that differ from what was
	// published under the name; duplicates counts fetches the client
	// refused as a duplicate outstanding name (a harness fault).
	mismatches, duplicates int64
	nacks, timeouts, errs  int64
	firstMismatch          string
}

func (s *loadStats) merge(o *loadStats) {
	s.ok += o.ok
	s.failed += o.failed
	s.mismatches += o.mismatches
	s.duplicates += o.duplicates
	s.nacks += o.nacks
	s.timeouts += o.timeouts
	s.errs += o.errs
	if s.firstMismatch == "" {
		s.firstMismatch = o.firstMismatch
	}
}

func (s *loadStats) failureSummary() string {
	return fmt.Sprintf("nack=%d timeout=%d error=%d mismatch=%d duplicate=%d",
		s.nacks, s.timeouts, s.errs, s.mismatches, s.duplicates)
}

// latLog holds one fetcher's latency samples (ns) since the bin sampler
// last took them. A failed fetch is logged as the full fetch timeout, so
// it lies beyond any latency limit below it.
type latLog struct {
	mu sync.Mutex
	xs []float64
}

func (l *latLog) add(v float64) {
	l.mu.Lock()
	l.xs = append(l.xs, v)
	l.mu.Unlock()
}

// take appends the logged samples to dst and empties the log.
func (l *latLog) take(dst []float64) []float64 {
	l.mu.Lock()
	dst = append(dst, l.xs...)
	l.xs = l.xs[:0]
	l.mu.Unlock()
	return dst
}

// samePayload reports whether a delivered chunk is byte-equal to the
// published one: name, payload and signature.
func samePayload(got, want *core.Content) bool {
	return got != nil && got.Meta.Name.Equal(want.Meta.Name) &&
		bytes.Equal(got.Payload, want.Payload) && bytes.Equal(got.Signature, want.Signature)
}

// drive runs clients × window closed-loop fetchers until pick reports
// no more work, and returns their merged tallies. Each fetcher draws
// from its own RNG seeded from seed. completed, when non-nil, counts
// successful fetches as they finish; logs, when non-nil, holds one
// latency log per fetcher.
func (n *liveNet) drive(seed int64, pick func(*rand.Rand) (int, bool), completed *atomic.Int64, logs []*latLog) *loadStats {
	var wg sync.WaitGroup
	parts := make([]*loadStats, 0, len(n.clients)*n.cfg.window)
	for c, cl := range n.clients {
		busy := &busySet{busy: make(map[int]bool)}
		for w := 0; w < n.cfg.window; w++ {
			st := &loadStats{}
			var log *latLog
			if logs != nil {
				log = logs[len(parts)]
			}
			parts = append(parts, st)
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*101 + int64(w)))
			wg.Add(1)
			go func(cl *forwarder.Client) {
				defer wg.Done()
				n.fetchLoop(cl, busy, rng, pick, st, completed, log)
			}(cl)
		}
	}
	wg.Wait()
	total := &loadStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func (n *liveNet) fetchLoop(cl *forwarder.Client, busy *busySet, rng *rand.Rand, pick func(*rand.Rand) (int, bool),
	st *loadStats, completed *atomic.Int64, log *latLog) {
	for {
		k, more := pick(rng)
		if !more {
			return
		}
		if !busy.acquire(k) {
			continue // in flight on this client already: draw again
		}
		start := time.Now()
		got, err := cl.Fetch(n.m.names[k], fetchTimeout)
		d := time.Since(start)
		busy.release(k)
		switch {
		case err != nil:
			st.failed++
			d = fetchTimeout
			switch {
			case errors.Is(err, forwarder.ErrNACK):
				st.nacks++
			case errors.Is(err, forwarder.ErrTimeout):
				st.timeouts++
			case strings.Contains(err.Error(), "duplicate outstanding request"):
				st.duplicates++
			default:
				st.errs++
			}
		case !samePayload(got, n.m.want[k]):
			st.failed++
			st.mismatches++
			d = fetchTimeout
			if st.firstMismatch == "" {
				st.firstMismatch = n.m.names[k].String()
			}
		default:
			st.ok++
			if completed != nil {
				completed.Add(1)
			}
		}
		if log != nil {
			log.add(float64(d))
		}
	}
}

// bin is the window's progress over one binWidth interval.
type bin struct {
	dur     time.Duration
	ok      int64
	cpu     time.Duration
	samples int
	// p50 and p99 are the bin's latency percentiles (ns).
	p50, p99 float64
}

// sampleBins closes a bin every binWidth until stop closes, then closes
// the last one and sends the series. Each bin takes the fetchers'
// latency logs, so samples are held for one bin only.
func sampleBins(completed *atomic.Int64, logs []*latLog, stop <-chan struct{}, out chan<- []bin) {
	var bins []bin
	var buf []float64
	lastAt, lastOK, lastCPU := time.Now(), completed.Load(), processCPU()
	closeBin := func() {
		at, ok, cpu := time.Now(), completed.Load(), processCPU()
		buf = buf[:0]
		for _, l := range logs {
			buf = l.take(buf)
		}
		bins = append(bins, bin{
			dur: at.Sub(lastAt), ok: ok - lastOK, cpu: cpu - lastCPU, samples: len(buf),
			p50: quantile(buf, 0.50), p99: quantile(buf, 0.99),
		})
		lastAt, lastOK, lastCPU = at, ok, cpu
	}
	t := time.NewTicker(binWidth)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			closeBin()
		case <-stop:
			closeBin()
			out <- bins
			return
		}
	}
}

// windowStats summarises a window's bins: the medians, over the bins
// that span at least half a bin width, of the fetch rate, the CPU per
// fetch and the latency percentiles (µs), and the latency sample count.
type windowStats struct {
	rate, cpuPerFetch, p50us, p99us float64
	samples, bins                   int
}

func summarise(bins []bin) windowStats {
	var rates, cpus, p50s, p99s []float64
	var ws windowStats
	for _, b := range bins {
		if b.dur < binWidth/2 || b.ok <= 0 {
			continue
		}
		ws.bins++
		ws.samples += b.samples
		rates = append(rates, float64(b.ok)/b.dur.Seconds())
		cpus = append(cpus, float64(b.cpu)/float64(time.Microsecond)/float64(b.ok))
		p50s = append(p50s, b.p50/float64(time.Microsecond))
		p99s = append(p99s, b.p99/float64(time.Microsecond))
	}
	ws.rate, ws.cpuPerFetch = median(rates), median(cpus)
	ws.p50us, ws.p99us = median(p50s), median(p99s)
	return ws
}

// counters is a point-in-time reading of every public counter the
// benchmark scrapes.
type counters struct {
	edge, core       forwarder.Stats
	prod             forwarder.ProducerStats
	client           forwarder.ClientStats
	edgeVer, coreVer uint64
	edgeReg, coreReg map[string]float64
	prodReg          map[string]float64
	rt               runtimeSample
	attackSent       int64
}

func (n *liveNet) read() counters {
	c := counters{
		edge: n.edge.Stats(), core: n.core.Stats(), prod: n.producer.Stats(),
		edgeVer: n.edge.Tactic().Validator().Verifications(),
		coreVer: n.core.Tactic().Validator().Verifications(),
		edgeReg: n.edgeReg.Snapshot(), coreReg: n.coreReg.Snapshot(), prodReg: n.prodReg.Snapshot(),
		rt: readRuntime(),
	}
	for _, cl := range n.clients {
		s := cl.Stats()
		c.client.FetchNACK += s.FetchNACK
		c.client.Retransmits += s.Retransmits
		c.client.Conn.Errors += s.Conn.Errors
	}
	if n.attacker != nil {
		c.attackSent = n.attacker.sent.Load()
	}
	return c
}

// windowResult is one timed window of closed-loop load.
type windowResult struct {
	windowStats
	start         time.Time
	wall          time.Duration
	load          *loadStats
	before, after counters
	lagP99us      float64
}

// measure runs the closed-loop fetchers for d with Zipf(0.7) names and
// reads every counter before and after.
func (n *liveNet) measure(d time.Duration, seed int64) (*windowResult, error) {
	z, err := workload.NewZipf(n.cfg.catalog, zipfAlpha)
	if err != nil {
		return nil, err
	}
	logs := make([]*latLog, n.cfg.clients*n.cfg.window)
	for i := range logs {
		logs[i] = &latLog{}
	}
	settle()
	res := &windowResult{before: n.read()}
	if n.attacker != nil {
		n.attacker.recordLag(true)
	}
	var completed atomic.Int64
	stop := make(chan struct{})
	binsCh := make(chan []bin, 1)
	go sampleBins(&completed, logs, stop, binsCh)
	res.start = time.Now()
	deadline := res.start.Add(d)
	res.load = n.drive(seed, func(rng *rand.Rand) (int, bool) {
		return z.Sample(rng), time.Now().Before(deadline)
	}, &completed, logs)
	res.wall = time.Since(res.start)
	close(stop)
	res.windowStats = summarise(<-binsCh)
	if n.attacker != nil {
		n.attacker.recordLag(false)
		res.lagP99us = quantile(n.attacker.lagSamples(), 0.99) / float64(time.Microsecond)
	}
	res.after = n.read()
	return res, nil
}

// checkWindow applies the live correctness gates to one window.
func (n *liveNet) checkWindow(o *outcome, res *windowResult) {
	l := res.load
	if l.mismatches > 0 {
		o.violate("%s: %d delivered payloads differ from the published chunk (first: %s)", n.cfg.name, l.mismatches, l.firstMismatch)
	}
	if l.duplicates > 0 {
		o.violate("%s: %d fetches collided on an outstanding name (generator fault)", n.cfg.name, l.duplicates)
	}
	if l.ok == 0 {
		o.violate("%s: no fetch completed in the window", n.cfg.name)
	}
	if n.cfg.flood {
		if sheds := res.after.edge.VerifySheds - res.before.edge.VerifySheds; sheds == 0 {
			o.violate("%s: the edge never shed the attacker face (offered %.0f forged Interests/s): the flood did not load the verify pool", n.cfg.name, n.cfg.floodRate)
		}
	}
	if n.attacker != nil {
		if leaked := n.attacker.delivered.Load(); leaked > 0 {
			o.violate("%s: %d forged-tag Interests were answered with content and no NACK", n.cfg.name, leaked)
		}
	}
}

// runLive is a --trace 0 run: set up `setups` times (keeping the last
// deployment), measure one window, report the end-to-end metrics.
func runLive(cfg liveConfig, seed int64, window time.Duration, w io.Writer) (*outcome, error) {
	var setupTimes []float64
	var n *liveNet
	for i := 0; i < setups; i++ {
		if n != nil {
			n.close()
			n = nil // release the previous catalog before building the next
		}
		settle()
		start := time.Now()
		m, err := newMaterial(cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if n, err = boot(cfg, m, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer n.close()
	res, err := n.measure(window, seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: res.load.ok + res.load.failed, failed: res.load.failed, values: map[string]float64{}}
	n.checkWindow(o, res)
	o.values["fetch_rate"] = res.rate
	o.values["fetch_p50_us"] = res.p50us
	o.values["fetch_p99_us"] = res.p99us
	o.values["cpu_us_per_fetch"] = res.cpuPerFetch
	o.values["peak_rss_mb"] = peakRSSMB()
	o.values["setup_s"] = median(setupTimes)
	fmt.Fprintf(w, "%s: %d fetches in %.2fs (%d latency samples over %d bins; failures: %s); set-up times %.3v s\n",
		cfg.name, res.load.ok, res.wall.Seconds(), res.samples, res.bins, res.load.failureSummary(), setupTimes)
	if n.attacker != nil {
		n.attacker.describe(w, res)
	}
	return o, nil
}
