package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/reference"
)

// layer names one seam of the oracle chain that the traced run times.
type layer uint8

const (
	layerRoot      layer = iota // the whole traced learn
	layerLearner                // DTLearner.Learn
	layerEquiv                  // FindCounterexample: random words + Wp
	layerCache                  // CachedOracle.Query/QueryBatch, and the warm seal
	layerStore                  // store replay into the cache, model snapshot
	layerPool                   // Pool.Query/QueryBatch
	layerGuard                  // the oracle Guardian.Wrap returns
	layerOracle                 // learn.Counting over core.Oracle
	layerSUL                    // an in-process core.SUL: client codec and crypto
	layerAdapter                // adapter.SUL: one stdio round trip
	layerQuicsim                // the in-memory transport: the simulated server
	layerNetem                  // netem.Link
	layerTransport              // the UDP client transport, response waits included
	numLayers
)

var layerNames = [numLayers]string{
	"learn", "learn.learner", "learn.equiv", "learn.cache", "learn.store", "learn.pool",
	"core.guard", "core.oracle", "lab.sul", "adapter", "quicsim", "netem", "transport",
}

// span is one timed call at a seam. Times are nanoseconds since the
// tracer's epoch; parent is the id of the caller's span, 0 for none.
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// tracer keeps the spans of one traced learn in memory, with counters
// taken at the same seams.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	rounds, cacheLookups, equivLookups  atomic.Int64
	guardQueries, votes                 atomic.Int64
	sulSteps, sulResets, adapterTrips   atomic.Int64
	sends, silentSends, datagrams       atomic.Int64
	poolCalls, poolWords, poolWaitNanos atomic.Int64
	windowSum, windowSamples            atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin(l layer, parent int32) (int32, int64) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{start: now, end: now, parent: parent, layer: l})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id, now
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

type (
	spanKey  struct{}
	equivKey struct{}
	enterKey struct{}
)

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// profile is what one traced learn's spans add up to, per layer.
type profile struct {
	self, total [numLayers]time.Duration
	// poolTime is the union of the pool's spans: the time at least one
	// query was inside the pool.
	poolTime time.Duration
}

// profile consumes the spans and computes each layer's self time: its
// spans' durations minus the part of each span that the span's children
// cover. Children of one span can overlap (pool shards run in parallel),
// so the covered part is the union of their intervals, clipped to the
// parent.
func (t *tracer) profile() profile {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	covered := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		if s.parent != 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		sa, sb := spans[a], spans[b]
		if sa.parent != sb.parent {
			return int(sa.parent - sb.parent)
		}
		return int(sa.start - sb.start)
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		ps, pe := spans[p-1].start, spans[p-1].end
		var sum, curS, curE int64
		open := false
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			s, e := max(spans[kids[i]].start, ps), min(spans[kids[i]].end, pe)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				sum += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			sum += curE - curS
		}
		covered[p-1] = sum
	}
	var pr profile
	var pool [][2]int64
	for i, s := range spans {
		d := s.end - s.start
		pr.total[s.layer] += time.Duration(d)
		pr.self[s.layer] += time.Duration(d - covered[i])
		if s.layer == layerPool {
			pool = append(pool, [2]int64{s.start, s.end})
		}
	}
	slices.SortFunc(pool, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var curS, curE int64
	for i, iv := range pool {
		if i > 0 && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		pr.poolTime += time.Duration(curE - curS)
		curS, curE = iv[0], iv[1]
	}
	pr.poolTime += time.Duration(curE - curS)
	return pr
}

// oracleSeam times one oracle layer (the cache or the pool) as a child
// of the caller's span, and counts the words that enter it.
type oracleSeam struct {
	t     *tracer
	layer layer
	inner learn.Oracle
}

// batchSeam is an oracleSeam over a learn.BatchOracle. It keeps the
// batch interface, so the layer above takes the same code path as it
// does without tracing.
type batchSeam struct{ oracleSeam }

// wrapOracle puts a seam around inner, keeping inner's interfaces.
func wrapOracle(t *tracer, l layer, inner learn.Oracle) learn.Oracle {
	s := oracleSeam{t: t, layer: l, inner: inner}
	if _, ok := inner.(learn.BatchOracle); ok {
		return &batchSeam{s}
	}
	return &s
}

// enter opens the seam's span for words entering it and returns the
// context its callee sees.
func (s *oracleSeam) enter(ctx context.Context, words int) (context.Context, int32) {
	id, now := s.t.begin(s.layer, spanOf(ctx))
	switch s.layer {
	case layerCache:
		s.t.cacheLookups.Add(int64(words))
		if ctx.Value(equivKey{}) != nil {
			s.t.equivLookups.Add(int64(words))
		}
	case layerPool:
		s.t.poolCalls.Add(1)
		s.t.poolWords.Add(int64(words))
		ctx = context.WithValue(ctx, enterKey{}, now)
	}
	return withSpan(ctx, id), id
}

func (s *oracleSeam) Query(ctx context.Context, word []string) ([]string, error) {
	ctx, id := s.enter(ctx, 1)
	defer s.t.finish(id)
	return s.inner.Query(ctx, word)
}

func (s *batchSeam) QueryBatch(ctx context.Context, words [][]string) ([][]string, error) {
	ctx, id := s.enter(ctx, len(words))
	defer s.t.finish(id)
	return s.inner.(learn.BatchOracle).QueryBatch(ctx, words)
}

// guardSeam times one shard's guarded oracle. A word's pool wait ends
// here, when its shard starts it.
type guardSeam struct {
	t     *tracer
	inner learn.Oracle
	win   *learn.Window
}

func (s *guardSeam) Query(ctx context.Context, word []string) ([]string, error) {
	id, now := s.t.begin(layerGuard, spanOf(ctx))
	defer s.t.finish(id)
	s.t.guardQueries.Add(1)
	if entered, ok := ctx.Value(enterKey{}).(int64); ok {
		s.t.poolWaitNanos.Add(now - entered)
	}
	if s.win != nil {
		s.t.windowSum.Add(int64(s.win.Size()))
		s.t.windowSamples.Add(1)
	}
	return s.inner.Query(withSpan(ctx, id), word)
}

// replica is the per-shard state the seams below the oracle share. SUL
// and transport calls carry no context, so the innermost open span of the
// shard is kept here; a shard is driven by one goroutine at a time.
type replica struct {
	t   *tracer
	cur int32
}

// call runs fn as a span of layer l under the replica's innermost span.
func (r *replica) call(l layer, fn func()) {
	id, _ := r.t.begin(l, r.cur)
	prev := r.cur
	r.cur = id
	fn()
	r.cur = prev
	r.t.finish(id)
}

// countedSeam times the counted SUL oracle: one live execution.
type countedSeam struct {
	rep   *replica
	inner learn.Oracle
}

func (s *countedSeam) Query(ctx context.Context, word []string) (out []string, err error) {
	s.rep.t.votes.Add(1)
	prev := s.rep.cur
	s.rep.cur = spanOf(ctx)
	s.rep.call(layerOracle, func() { out, err = s.inner.Query(ctx, word) })
	s.rep.cur = prev
	return out, err
}

// sulSeam times Reset and Step of one replica's SUL.
type sulSeam struct {
	rep   *replica
	layer layer
	inner core.SUL
}

func (s *sulSeam) Reset() (err error) {
	if s.layer == layerAdapter {
		s.rep.t.adapterTrips.Add(1)
	} else {
		s.rep.t.sulResets.Add(1)
	}
	s.rep.call(s.layer, func() { err = s.inner.Reset() })
	return err
}

func (s *sulSeam) Step(in string) (out string, err error) {
	if s.layer == layerAdapter {
		s.rep.t.adapterTrips.Add(1)
	} else {
		s.rep.t.sulSteps.Add(1)
	}
	s.rep.call(s.layer, func() { out, err = s.inner.Step(in) })
	return out, err
}

// transportSeam times Send of one replica's transport: the simulated
// server, a netem link, or the UDP socket.
type transportSeam struct {
	rep   *replica
	layer layer
	inner reference.Transport
}

func (s *transportSeam) Send(src string, datagram []byte) (out [][]byte) {
	s.rep.call(s.layer, func() { out = s.inner.Send(src, datagram) })
	if s.layer == layerTransport {
		s.rep.t.sends.Add(1)
		s.rep.t.datagrams.Add(int64(len(out)))
		if len(out) == 0 {
			s.rep.t.silentSends.Add(1)
		}
	}
	return out
}

// equivSeam times the equivalence search and marks its context, so the
// cache seam can tell which lookups it issued.
type equivSeam struct {
	t     *tracer
	inner learn.EquivalenceOracle
}

func (s *equivSeam) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	id, _ := s.t.begin(layerEquiv, spanOf(ctx))
	defer s.t.finish(id)
	s.t.rounds.Add(1)
	return s.inner.FindCounterexample(context.WithValue(withSpan(ctx, id), equivKey{}, true), hyp)
}
