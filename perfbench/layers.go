package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload a change to its layer should move.
type layerMetric struct {
	name, unit, moves string
}

// perLayer lists the traced run's metrics in report order. Values are per
// model (averaged over the run's traced learns) unless the name says
// frac or per.
var perLayer = []layerMetric{
	{"learn.learner.self_s", "s", "learn_s on warm-google, where it is most of the learn; a little on cold-google"},
	{"learn.rounds", "count", "learn_s on warm-google; equivalence rounds on cold-google"},
	{"learn.equiv.self_s", "s", "learn_s on cold-google and adapter-google; none on udp-lossy-quiche"},
	{"learn.equiv.lookup_frac", "ratio", "live_queries and learn_s on cold-google and adapter-google"},
	{"learn.cache.lookups", "count", "learn_s and allocs on warm-google (reads) and cold-google (writes)"},
	{"learn.cache.hit_frac", "ratio", "learn_s and allocs on warm-google and cold-google"},
	{"learn.cache.self_s", "s", "learn_s and allocs on warm-google (reads) and cold-google (store appends)"},
	{"learn.store.open_s", "s", "setup_s and learn_s on warm-google; about zero elsewhere"},
	{"learn.store.entries", "count", "setup_s on warm-google; zero on adapter-google and udp-lossy-quiche"},
	{"learn.pool.wait_s", "s", "learn_s on cold-google and adapter-google"},
	{"learn.pool.busy_frac", "ratio", "learn_s on cold-google and adapter-google"},
	{"learn.pool.batch_words", "count", "learn_s on cold-google and adapter-google"},
	{"learn.pool.self_s", "s", "learn_s on cold-google and adapter-google"},
	{"learn.window.decreases", "count", "learn_s on udp-lossy-quiche only"},
	{"learn.window.mean_size", "count", "learn_s on udp-lossy-quiche only"},
	{"core.guard.votes_per_query", "ratio", "live_queries and learn_s on udp-lossy-quiche; 2, the MinVotes floor, on clean links"},
	{"core.guard.wasted_frac", "ratio", "live_queries and learn_s on udp-lossy-quiche; 0 on clean links"},
	{"core.guard.escalations", "count", "learn_s on udp-lossy-quiche; 0 on clean links"},
	{"core.guard.self_s", "s", "learn_s on udp-lossy-quiche; flat elsewhere"},
	{"core.oracle.self_s", "s", "nothing measurable: the counted-oracle loop"},
	{"lab.sul.steps", "count", "learn_s, cpu_s, allocs, alloc_mb on cold-google; zero on warm-google"},
	{"lab.sul.resets", "count", "learn_s and cpu_s on cold-google; zero on warm-google"},
	{"lab.sul.self_s", "s", "learn_s, cpu_s, allocs, alloc_mb on cold-google; cpu_s on adapter-google via its subprocess"},
	{"quicsim.self_s", "s", "learn_s, cpu_s, allocs, alloc_mb on cold-google"},
	{"transport.send_s", "s", "learn_s on udp-lossy-quiche only"},
	{"transport.silent_frac", "ratio", "learn_s on udp-lossy-quiche only"},
	{"transport.datagrams_per_send", "ratio", "learn_s on udp-lossy-quiche only"},
	{"netem.drop_frac", "ratio", "nothing: a control that must stay near 0.02 on udp-lossy-quiche"},
	{"netem.self_s", "s", "learn_s on udp-lossy-quiche only"},
	{"adapter.round_trips_per_query", "ratio", "learn_s and cpu_s on adapter-google only"},
	{"adapter.rtt_us", "us", "learn_s and cpu_s on adapter-google only"},
	{"adapter.restarts", "count", "learn_s on adapter-google only; 0 when the adapter is healthy"},
	{"live_queries", "count", "learn_s and cpu_s on cold-google, adapter-google, udp-lossy-quiche; 0 on warm-google"},
	{"live_symbols", "count", "learn_s and cpu_s on cold-google and adapter-google; 0 on warm-google"},
	{"trace.learn_s", "s", "the traced learn_s; over the untraced learn_s it gives trace.overhead"},
	{"trace.overhead", "ratio", "nothing: tracing cost, traced over untraced learn_s"},
	{"trace.unattributed_frac", "ratio", "nothing: share of traced wall time outside every layer span"},
}

// traced gives the per-layer metrics. The first half of the run learns
// untraced, as the timed run does, for the overhead baseline and the live
// query counts; the second half learns through the traced chain. Exact
// workloads then check fidelity: at one worker the traced chain must make
// exactly the live queries of an untraced learn with the same seed.
func (r *runner) traced(ctx context.Context, d time.Duration) result {
	var res result
	var base []sample
	closedLoop(d/2, func() {
		s, ok := r.learnOnce(ctx, r.nextSeed(), workers)
		res.Attempted++
		if !ok {
			res.Failed++
		} else {
			base = append(base, s)
		}
	})
	var tls []*tracedLearn
	closedLoop(d-d/2, func() {
		seed := r.nextSeed()
		tl, err := r.tracedOnce(ctx, seed, workers)
		res.Attempted++
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: traced learn, seed %d: %v\n", seed, err)
			res.Failed++
		case !r.checkModel(tl.model):
			res.Failed++
		default:
			tls = append(tls, tl)
		}
	})
	checks := true
	if r.w.exact {
		checks = r.fidelity(ctx, &res)
	}
	res.Correct = checks && res.Failed == 0 && len(base) > 0 && len(tls) > 0
	fmt.Printf("%s: %d learns attempted, %d failed; per-layer figures from %d traced learns, baseline from %d untraced\n",
		r.w.name, res.Attempted, res.Failed, len(tls), len(base))

	values := layerValues(tls)
	var baseLearn, queries, symbols []float64
	for _, s := range base {
		baseLearn = append(baseLearn, s.learn.Seconds())
		queries = append(queries, float64(s.queries))
		symbols = append(symbols, float64(s.symbols))
	}
	values["live_queries"] = medianF(queries)
	values["live_symbols"] = medianF(symbols)
	values["trace.overhead"] = ratio(values["trace.learn_s"], medianF(baseLearn))
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			panic("perfbench: no value for per-layer metric " + m.name)
		}
		res.add(m.name, v, m.unit, "moves: "+m.moves)
	}
	return res
}

// fidelity learns once untraced and once traced with the same seed and
// one worker, checks that both learn the golden with the same live
// queries and symbols, and reports how much of the traced learn's wall
// time the layers' self times account for. Both learns count in res.
func (r *runner) fidelity(ctx context.Context, res *result) bool {
	seed := r.nextSeed()
	res.Attempted += 2
	s, ok := r.learnOnce(ctx, seed, 1)
	if !ok {
		res.Failed++
		return false
	}
	tl, err := r.tracedOnce(ctx, seed, 1)
	if err != nil || !r.checkModel(tl.model) {
		fmt.Fprintf(os.Stderr, "perfbench: fidelity: traced learn, seed %d: %v\n", seed, err)
		res.Failed++
		return false
	}
	same := s.queries == tl.stats.Queries && s.symbols == tl.stats.Symbols
	verdict := "ok"
	if !same {
		verdict = "MISMATCH"
	}
	fmt.Printf("fidelity (seed %d, 1 worker): untraced %d queries / %d symbols, traced %d / %d: %s\n",
		seed, s.queries, s.symbols, tl.stats.Queries, tl.stats.Symbols, verdict)
	share := attributed(tl.profile)
	wall := tl.profile.total[layerRoot]
	fmt.Printf("attribution (1 worker): layer self times cover %.2f%% of %v; unattributed %v\n",
		100*share, wall, time.Duration(float64(wall)*(1-share)))
	for l := layerRoot + 1; l < numLayers; l++ {
		if tl.profile.self[l] > 0 {
			fmt.Printf("  self %-14s %12v %6.2f%%\n", layerNames[l], tl.profile.self[l],
				100*ratio(float64(tl.profile.self[l]), float64(wall)))
		}
	}
	return same && share >= minAttributed
}

// minAttributed is the share of a one-worker traced learn's wall time the
// layers' self times must account for.
const minAttributed = 0.95

// attributed is the share of the learn's wall time covered by the self
// times of every layer below the root span.
func attributed(p profile) float64 {
	var sum time.Duration
	for l := layerRoot + 1; l < numLayers; l++ {
		sum += p.self[l]
	}
	return ratio(float64(sum), float64(p.total[layerRoot]))
}

// layerValues turns the traced learns into per-model layer metrics.
func layerValues(tls []*tracedLearn) map[string]float64 {
	var p profile
	var c struct {
		rounds, lookups, equivLookups, guardQueries, votes, steps, resets  int64
		trips, sends, silent, datagrams, poolCalls, poolWords, poolWait    int64
		winSum, winSamples, hits, wasted, escalations, decreases, restarts int64
		sent, dropped, entries                                             int64
		storeOpen                                                          time.Duration
	}
	var walls []float64
	for _, tl := range tls {
		for l := range p.self {
			p.self[l] += tl.profile.self[l]
			p.total[l] += tl.profile.total[l]
		}
		p.poolTime += tl.profile.poolTime
		t := tl.t
		c.rounds += t.rounds.Load()
		c.lookups += t.cacheLookups.Load()
		c.equivLookups += t.equivLookups.Load()
		c.guardQueries += t.guardQueries.Load()
		c.votes += t.votes.Load()
		c.steps += t.sulSteps.Load()
		c.resets += t.sulResets.Load()
		c.trips += t.adapterTrips.Load()
		c.sends += t.sends.Load()
		c.silent += t.silentSends.Load()
		c.datagrams += t.datagrams.Load()
		c.poolCalls += t.poolCalls.Load()
		c.poolWords += t.poolWords.Load()
		c.poolWait += t.poolWaitNanos.Load()
		c.winSum += t.windowSum.Load()
		c.winSamples += t.windowSamples.Load()
		c.hits += tl.stats.Hits
		c.wasted += tl.guard.WastedVotes
		c.escalations += tl.guard.Escalations
		c.decreases += tl.window.Decreases
		c.restarts += int64(tl.restarts)
		c.sent += int64(tl.faults.SentClient + tl.faults.SentServer)
		c.dropped += int64(tl.faults.DroppedClient + tl.faults.DroppedServer)
		c.entries += int64(tl.storeEntries)
		c.storeOpen += tl.storeOpen
		walls = append(walls, tl.wall.Seconds())
	}
	n := float64(max(len(tls), 1))
	per := func(v int64) float64 { return float64(v) / n }
	secs := func(l layer) float64 { return p.self[l].Seconds() / n }
	f := func(a, b int64) float64 { return ratio(float64(a), float64(b)) }
	return map[string]float64{
		"learn.learner.self_s":          secs(layerLearner),
		"learn.rounds":                  per(c.rounds),
		"learn.equiv.self_s":            secs(layerEquiv),
		"learn.equiv.lookup_frac":       f(c.equivLookups, c.lookups),
		"learn.cache.lookups":           per(c.lookups),
		"learn.cache.hit_frac":          f(c.hits, c.lookups),
		"learn.cache.self_s":            secs(layerCache),
		"learn.store.open_s":            c.storeOpen.Seconds() / n,
		"learn.store.entries":           per(c.entries),
		"learn.pool.wait_s":             float64(c.poolWait) / 1e9 / n,
		"learn.pool.busy_frac":          ratio(p.total[layerGuard].Seconds(), workers*p.poolTime.Seconds()),
		"learn.pool.batch_words":        f(c.poolWords, c.poolCalls),
		"learn.pool.self_s":             secs(layerPool),
		"learn.window.decreases":        per(c.decreases),
		"learn.window.mean_size":        f(c.winSum, c.winSamples),
		"core.guard.votes_per_query":    f(c.votes, c.guardQueries),
		"core.guard.wasted_frac":        f(c.wasted, c.votes),
		"core.guard.escalations":        per(c.escalations),
		"core.guard.self_s":             secs(layerGuard),
		"core.oracle.self_s":            secs(layerOracle),
		"lab.sul.steps":                 per(c.steps),
		"lab.sul.resets":                per(c.resets),
		"lab.sul.self_s":                secs(layerSUL),
		"quicsim.self_s":                secs(layerQuicsim),
		"transport.send_s":              p.total[layerTransport].Seconds() / n,
		"transport.silent_frac":         f(c.silent, c.sends),
		"transport.datagrams_per_send":  f(c.datagrams, c.sends),
		"netem.drop_frac":               f(c.dropped, c.sent),
		"netem.self_s":                  secs(layerNetem),
		"adapter.round_trips_per_query": f(c.trips, c.votes),
		"adapter.rtt_us":                ratio(p.total[layerAdapter].Seconds()*1e6, float64(c.trips)),
		"adapter.restarts":              per(c.restarts),
		"trace.learn_s":                 medianF(walls),
		"trace.unattributed_frac":       ratio(p.self[layerRoot].Seconds(), p.total[layerRoot].Seconds()),
	}
}

// closedLoop calls learn back to back: at least once, and again while the
// median call so far still fits before d has passed.
func closedLoop(d time.Duration, learn func()) {
	deadline := time.Now().Add(d)
	var cycles []time.Duration
	for len(cycles) == 0 || time.Now().Add(median(cycles)).Before(deadline) {
		start := time.Now()
		learn()
		cycles = append(cycles, time.Since(start))
	}
}
