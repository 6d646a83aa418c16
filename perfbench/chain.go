package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/adapter"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
	"repro/internal/netem"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/transport"
)

// This file rebuilds, from public constructors, the oracle chain that
// lab.NewExperiment and core.Experiment.Learn assemble, with a seam
// wrapper at every layer boundary:
//
//	DTLearner → equivalence → cache (+store) → pool (+window) → guard →
//	counted oracle → SUL → transport (simulator, or netem over UDP)
//
// The traced chain must ask exactly the queries the engine asks; the
// fidelity check compares it with an untraced learn of the same seed.

// replicas are the traced SUL replicas of one learn.
type replicas struct {
	alphabet []string
	truth    *automata.Mealy
	reps     []*replica
	suls     []core.SUL
	links    []*netem.Link
	adapters []*adapter.SUL
	closers  []func() error
}

func (rs *replicas) close() {
	for i := len(rs.closers) - 1; i >= 0; i-- {
		rs.closers[i]()
	}
}

// buildReplicas builds cfg.Workers replicas of target the way the lab
// registry does, with seams around the SUL and its transports.
func buildReplicas(t *tracer, target string, cfg learncfg.Config) (*replicas, error) {
	rs := &replicas{}
	if target == lab.TargetAdapter {
		for i := 0; i < cfg.Workers; i++ {
			s, err := adapter.New(adapter.Config{Command: cfg.AdapterCmd})
			if err != nil {
				rs.close()
				return nil, err
			}
			rs.closers = append(rs.closers, s.Close)
			rs.adapters = append(rs.adapters, s)
			rs.alphabet = s.Alphabet()
			rep := &replica{t: t}
			rs.reps = append(rs.reps, rep)
			rs.suls = append(rs.suls, &sulSeam{rep: rep, layer: layerAdapter, inner: s})
		}
		return rs, nil
	}
	profile, err := lab.QUICProfile(target)
	if err != nil {
		return nil, err
	}
	if cfg.Warmup > 0 && cfg.Impairment().Enabled() {
		return nil, errors.New("the traced chain does not run warm-up words")
	}
	rs.alphabet = quicsim.InputAlphabet()
	rs.truth = quicsim.GroundTruth(profile)
	seed := cfg.Seed
	if seed == 0 {
		seed = 7
	}
	impair := cfg.Impairment()
	for i := 0; i < cfg.Workers; i++ {
		rep := &replica{t: t}
		srv := quicsim.NewServer(quicsim.Config{Profile: profile, Seed: seed})
		var tr reference.Transport
		if cfg.UDP {
			hosted, err := transport.ListenQUIC(transport.Loopback(), srv)
			if err != nil {
				rs.close()
				return nil, err
			}
			rs.closers = append(rs.closers, hosted.Close)
			sock := transport.NewQUICClientTransport(hosted.Addr())
			rs.closers = append(rs.closers, sock.Close)
			tr = &transportSeam{rep: rep, layer: layerTransport, inner: sock}
		} else {
			tr = &transportSeam{rep: rep, layer: layerQuicsim, inner: reference.ServerTransport(srv)}
		}
		if impair.Enabled() {
			link := netem.New(tr, impair.ForWorker(i))
			rs.links = append(rs.links, link)
			tr = &transportSeam{rep: rep, layer: layerNetem, inner: link}
		}
		cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: seed + 4}, tr)
		rs.reps = append(rs.reps, rep)
		rs.suls = append(rs.suls, &sulSeam{rep: rep, layer: layerSUL, inner: &lab.QUICSetup{Server: srv, Client: cli}})
	}
	return rs, nil
}

// tracedLearn is what one traced learn measured.
type tracedLearn struct {
	model        *automata.Mealy
	stats        learn.Stats
	guard        core.GuardStats
	wall         time.Duration
	profile      profile
	t            *tracer
	storeOpen    time.Duration // OpenStore, snapshot load and replay
	storeEntries int
	window       learn.WindowStats
	faults       netem.Stats
	restarts     int
}

// tracedOnce learns once through the traced chain with nworkers shards.
func (r *runner) tracedOnce(ctx context.Context, seed int64, nworkers int) (*tracedLearn, error) {
	cfg := r.config(seed, nworkers)
	defer r.dropStore(cfg)
	if cfg.Learner != string(core.LearnerTTT) || cfg.NoCache || cfg.RTT != 0 {
		return nil, fmt.Errorf("the traced chain covers only the ttt learner with its cache, without -rtt")
	}
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	rs, err := buildReplicas(t, r.w.target, cfg)
	if err != nil {
		return nil, err
	}
	defer rs.close()
	tl := &tracedLearn{t: t}

	var st *learn.Store
	var warm *automata.Mealy
	if cfg.Store != "" {
		t0 := time.Now()
		st, err = learn.OpenStore(cfg.Store, lab.RunKey(r.w.target, opts...))
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if m, err := st.LoadModel(); err == nil {
			warm = m
		}
		tl.storeOpen = time.Since(t0)
		tl.storeEntries = st.Entries()
	}

	guardCfg := core.DefaultGuard()
	if cfg.Impairment().Enabled() {
		guardCfg = core.DefaultAdaptiveGuard()
	}
	var win *learn.Window
	var guardObs learn.Observer
	if cfg.Window > 0 && nworkers > 1 {
		win = learn.NewWindow(learn.WindowConfig{Initial: cfg.Window, Max: nworkers}, nil)
		guardObs = learn.ObserverFunc(func(ev learn.Event) {
			if _, ok := ev.(learn.GuardEscalated); ok {
				win.OnLoss()
			}
		})
	}
	guardian := core.NewGuardian(guardCfg, &tl.guard, guardObs)
	shard := func(i int) learn.Oracle {
		counted := &countedSeam{rep: rs.reps[i], inner: learn.Counting(core.Oracle(rs.suls[i]), &tl.stats)}
		return &guardSeam{t: t, inner: guardian.Wrap(counted), win: win}
	}

	start := time.Now()
	root, _ := t.begin(layerRoot, 0)
	ctx = withSpan(ctx, root)
	var oracle learn.Oracle
	if nworkers > 1 {
		shards := make([]learn.Oracle, nworkers)
		for i := range shards {
			shards[i] = shard(i)
		}
		pool := learn.NewPool(shards...)
		if win != nil {
			pool.UseWindow(win)
		}
		oracle = wrapOracle(t, layerPool, pool)
	} else {
		oracle = shard(0)
	}
	cached := learn.NewCache(oracle, &tl.stats)
	if st != nil {
		id, _ := t.begin(layerStore, root)
		t0 := time.Now()
		cached.UseStore(st)
		tl.storeOpen += time.Since(t0)
		t.finish(id)
	}
	cache := wrapOracle(t, layerCache, cached)
	var eq learn.EquivalenceOracle
	if cfg.Perfect {
		eq = &learn.ModelOracle{Model: rs.truth}
	} else {
		rw := learn.NewRandomWordsOracle(cache, rs.alphabet, cfg.Seed+1)
		if nworkers > 1 {
			rw.Workers = nworkers
		}
		eq = rw
		if cfg.Conformance > 0 {
			eq = learn.ChainOracle{rw, &learn.WpMethodOracle{
				Oracle: cache, Inputs: rs.alphabet, Depth: cfg.Conformance, Workers: nworkers,
			}}
		}
	}
	eq = &revalidated{inner: &equivSeam{t: t, inner: eq}, cache: cached}

	var model *automata.Mealy
	for attempt := 0; ; attempt++ {
		id, _ := t.begin(layerLearner, root)
		d := learn.NewDTLearner(cache, rs.alphabet)
		d.Warm = warm
		model, err = d.Learn(withSpan(ctx, id), eq)
		t.finish(id)
		var inc *learn.InconsistencyError
		if err == nil || attempt >= maxCacheRepairs || !errors.As(err, &inc) {
			break
		}
		if attempt == maxCacheRepairs-1 {
			cached.Clear()
			continue
		}
		for _, w := range inc.Words {
			if _, err := cached.Refresh(ctx, w); err != nil {
				return nil, err
			}
		}
	}
	if err == nil && st != nil {
		id, _ := t.begin(layerCache, root)
		_ = cached.SealWarm(ctx, model, rs.alphabet, false)
		t.finish(id)
		id, _ = t.begin(layerStore, root)
		_ = st.SaveModel(model.Minimize())
		t.finish(id)
	}
	t.finish(root)
	tl.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	tl.model = model
	tl.profile = t.profile()
	if win != nil {
		tl.window = win.Stats()
	}
	for _, l := range rs.links {
		tl.faults.Add(l.Stats())
	}
	for _, a := range rs.adapters {
		tl.restarts += a.Restarts()
	}
	return tl, nil
}

// maxCacheRepairs matches the engine's bound on cache repairs per learn.
const maxCacheRepairs = 3

// revalidated is the engine's cache-poisoning breaker: a counterexample
// repeated from the previous round is re-asked live and its cached path
// overwritten, and one that keeps repeating becomes an
// InconsistencyError that restarts the learner.
type revalidated struct {
	inner   learn.EquivalenceOracle
	cache   *learn.CachedOracle
	last    string
	repeats int
}

func (r *revalidated) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	ce, err := r.inner.FindCounterexample(ctx, hyp)
	if err != nil || ce == nil {
		r.last, r.repeats = "", 0
		return ce, err
	}
	key := strings.Join(ce, "\x1f")
	if key != r.last {
		r.last, r.repeats = key, 0
		return ce, nil
	}
	r.repeats++
	if r.repeats > maxCacheRepairs {
		return nil, &learn.InconsistencyError{
			CE: ce, Words: [][]string{ce},
			Reason: "counterexample made no progress despite repeated cache repairs",
		}
	}
	if _, err := r.cache.Refresh(ctx, ce); err != nil {
		return nil, err
	}
	return ce, nil
}
