package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
	"ringsym/internal/store"
)

// daemon is an in-process ringd: a serve.Server behind an http.Server on a
// loopback listener.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	st    *store.Store // nil without a store
	url   string
	dir   string // the store's directory, removed on close
	serve chan struct{}
}

func startDaemon(opts serve.Options, dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(opts), st: opts.Store, dir: dir, url: "http://" + ln.Addr().String(), serve: make(chan struct{})}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.serve)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener, waits for in-flight handlers and the pool, then
// closes the store and removes its directory.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.serve
	d.srv.Close()
	if d.st != nil {
		d.st.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// request is one scheduled /v1/run call.
type request struct {
	sc   campaign.Scenario
	body []byte
}

// reply is what the load generator observed for one request.  A 200's
// record is kept only as the digest of its export line, so the replies of a
// whole window add little to the heap the daemon's GC has to mark.
type reply struct {
	due, sent, done time.Time
	status          int
	err             error
	cache           string   // the record's cache annotation
	line            [32]byte // SHA-256 of the record's export line, cache stripped
	body            []byte   // the raw body of a non-200 reply
}

// setBody records a response body on the reply.
func (rp *reply) setBody(status int, body []byte) {
	rp.status = status
	if status != http.StatusOK {
		rp.body = body
		return
	}
	line, cache := stripCache(body)
	rp.line, rp.cache = sha256.Sum256(line), cache
}

// stripCache removes the "cache" member from a served record, giving the
// bytes recordLine gives for the same record: Cache is omitempty, so an
// uncached encoding simply lacks the member.
func stripCache(b []byte) (line []byte, cache string) {
	const key = `,"cache":"`
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return b, ""
	}
	j := bytes.IndexByte(b[i+len(key):], '"')
	if j < 0 {
		return b, ""
	}
	end := i + len(key) + j
	return append(b[:i:i], b[end+1:]...), string(b[i+len(key) : end])
}

// serveSchedule builds the request stream: blocks of one fresh scenario
// seed each, every block holding every setting of the paper matrix at the
// serve sizes in 8 framings (4 phases × 2 reflections), shuffled within the
// block.  Each orbit's first framing misses and its other 7 hit; a block's
// orbits fit the memo cache, and a finished block's orbits are never asked
// for again.  Index numbers the stream.
func serveSchedule(p params, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(p.seed))
	seeds := drawSeeds(rng, 1+n/(72*8)+1)
	var out []request
	for _, seed := range seeds {
		block, err := campaign.Matrix{
			Sizes: p.serveSizes, Seeds: []int64{seed},
			Phases: []int{0, 1, 2, 3}, Reflections: []bool{false, true},
		}.Expand()
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, sc := range block {
			if len(out) == n {
				return out, nil
			}
			sc.Index = len(out)
			body, err := json.Marshal(sc)
			if err != nil {
				return nil, err
			}
			out = append(out, request{sc: sc, body: body})
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("serve schedule: %d requests, want %d", len(out), n)
	}
	return out, nil
}

// ticker wakes the open loop's pacer at least once per interval.
type ticker interface {
	wait() error
	stop()
}

// openLoop sends reqs to url at the fixed rate over conns keep-alive
// connections.  Request i is due at start + (i+1)/rate whether or not
// earlier requests have finished: a pacer releases each request when it
// falls due, and whichever sender is free takes it.  A request that waits
// for a sender is sent late, and the lateness counts in its latency.
func openLoop(ctx context.Context, url string, reqs []request, rate float64, conns int) ([]reply, error) {
	replies := make([]reply, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	tk, start, err := newTicker(interval)
	if err != nil {
		return nil, err
	}
	// Sized to the whole schedule, so the pacer never blocks on a busy
	// sender and a late request is visible as lateness.
	due := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(due)
		defer tk.stop()
		for released := 0; released < len(reqs); {
			if err := tk.wait(); err != nil {
				return // the senders see the channel close; unsent requests fail
			}
			for n := min(int(time.Since(start)/interval), len(reqs)); released < n; released++ {
				due <- released
			}
		}
	}()
	for c := 0; c < conns; c++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range due {
				rp := &replies[i]
				rp.due = start.Add(time.Duration(i+1) * interval)
				rp.sent = time.Now()
				status, body, err := post(ctx, client, url+"/v1/run", reqs[i].body)
				rp.done = time.Now()
				rp.err = err
				rp.setBody(status, body)
			}
		}()
	}
	wg.Wait()
	for i := range replies {
		if replies[i].sent.IsZero() {
			replies[i].err = errors.New("never sent: the pacer stopped")
			replies[i].due = start.Add(time.Duration(i+1) * interval)
			replies[i].sent, replies[i].done = replies[i].due, replies[i].due
		}
	}
	return replies, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveWorkload is an operator's ringd: the memo cache at default capacity
// with a fresh store attached as its tier, fed an open-loop seeded stream
// of /v1/run requests at p.serveRate over 2 keep-alive connections.  Every
// response must equal the uncached sweep-path record of its scenario,
// cache annotation aside; a failed or refused request counts as infinitely
// late.
func serveWorkload(ctx context.Context, p params) (_ *run, err error) {
	n := int(p.serveRate * p.window.Seconds())
	if n < 1 {
		n = 1
	}
	r := newRun()
	var d *daemon
	var cache *campaign.Cache
	var reqs []request
	r.setup, err = timeSetups(p.setups, func(last bool) error {
		if reqs, err = serveSchedule(p, n); err != nil {
			return err
		}
		dir, err := scratchDir(p.tmp, "serve-store-")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		cache = campaign.NewCache(0)
		cache.AttachTier(st, nil)
		if d, err = startDaemon(serve.Options{Workers: 2, Cache: cache, Store: st}, dir); err != nil {
			st.Close()
			return err
		}
		if !last {
			d.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.cleanup = d.close
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	r.start(p.window)
	replies, err := openLoop(ctx, d.url, reqs, p.serveRate, 2)
	r.stop()
	if err != nil {
		return nil, err
	}

	// Expected records come from the uncached sweep path, after the window.
	scs := make([]campaign.Scenario, len(reqs))
	for i, rq := range reqs {
		scs[i] = rq.sc
	}
	exp, err := campaign.RunAll(ctx, scs, campaign.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	if r.want, err = linesByIndex(exp); err != nil {
		return nil, err
	}
	hits, misses, late := checkReplies(r, replies, r.want)
	snap := d.srv.Snapshot()
	cs := cache.Stats()
	r.layer["serve.hit_p50_us"] = median(hits)
	r.layer["serve.miss_p50_us"] = median(misses)
	r.layer["serve.throttled"] = float64(snap.Throttled)
	r.layer["serve.failed"] = float64(snap.Failed)
	r.layer["loadgen.late_p99_ms"] = percentile(late, 99)
	if lookups := cs.Hits + cs.Misses + cs.Dedups + cs.DiskHits + cs.PeerHits; lookups > 0 {
		r.layer["memo.reuse_ratio"] = float64(cs.Hits+cs.Dedups+cs.DiskHits) / float64(lookups)
	}
	r.layer["memo.computes"] = float64(cs.Misses)
	r.layer["memo.evictions"] = float64(cs.Evictions)
	if ss := d.st.Stats(); ss.IndexEntries > 0 && ss.LiveBytes > 0 {
		r.layer["store.bytes_per_record"] = float64(ss.TotalBytes) / float64(ss.IndexEntries)
		r.layer["store.space_amp"] = float64(ss.TotalBytes) / float64(ss.LiveBytes)
	}

	// The traced replay also times the client-side HTTP round trip of each
	// replayed scenario against the live daemon.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	r.replaySet = scs
	r.hook = func(sc campaign.Scenario, tr *tracer, root int) string {
		body, err := json.Marshal(sc)
		if err != nil {
			return err.Error()
		}
		s := tr.begin("serve.http", sc.Index, root)
		status, b, err := post(ctx, client, d.url+"/v1/run", body)
		tr.end(s)
		if err != nil || status != http.StatusOK {
			return fmt.Sprintf("serve replay: scenario %d: status %d, error %v", sc.Index, status, err)
		}
		var rec campaign.Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Sprintf("serve replay: scenario %d: %v", sc.Index, err)
		}
		if line, err := recordLine(rec); err != nil || !bytes.Equal(line, r.want[sc.Index]) {
			return fmt.Sprintf("serve replay: scenario %d: response differs from the sweep-path record", sc.Index)
		}
		return ""
	}
	cleanup := r.cleanup
	r.cleanup = func() {
		client.CloseIdleConnections()
		cleanup()
	}
	return r, nil
}

// checkReplies counts the load generator's replies into the run: a reply
// must be a 200 whose record equals the expected line for its request
// (want, by index), cache annotation aside.  It returns the client-side
// round trips of hits and misses and each request's lateness, in µs, µs
// and ms.
func checkReplies(r *run, replies []reply, want map[int][]byte) (hits, misses, late []float64) {
	for i, rp := range replies {
		r.attempted++
		late = append(late, ms(rp.sent.Sub(rp.due)))
		if rp.err != nil || rp.status != http.StatusOK {
			r.fail(1, "serve: request %d: status %d, error %v: %s", i, rp.status, rp.err, rp.body)
			r.lat = append(r.lat, math.Inf(1))
			continue
		}
		if rp.line != sha256.Sum256(want[i]) {
			r.fail(1, "serve: request %d: the %q response differs from the sweep-path record %q", i, rp.cache, want[i])
			r.lat = append(r.lat, math.Inf(1))
			continue
		}
		r.delivered++
		r.lat = append(r.lat, ms(rp.done.Sub(rp.due)))
		rtt := float64(rp.done.Sub(rp.sent)) / 1e3
		switch rp.cache {
		case "hit":
			hits = append(hits, rtt)
		case "miss":
			misses = append(misses, rtt)
		}
	}
	return hits, misses, late
}
