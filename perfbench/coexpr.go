package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/internal/simarch"
	"repro/internal/stats"
)

// The coexpr workload is the paper's primary application end to end:
// SynthesizeExpression (set-up) -> Normalize -> CorrelationThreshold ->
// CorrelationGraphRep(Auto) -> MaxCliqueSize -> Enumerator.Run (lo=3,
// 2 workers) -> Paracliques.  It does no disk I/O and no HTTP.

type coexprSize struct {
	genes, conditions int
	modules           int // planted modules, of largest, largest-1, ..., largest-4 genes in turn
	largest           int
	workers           int
}

var (
	coexprFull = coexprSize{genes: 2400, conditions: 60, modules: 40, largest: 18, workers: 2}
	coexprTiny = coexprSize{genes: 240, conditions: 40, modules: 6, largest: 9, workers: 2}
)

const (
	coexprSetupReps = 3
	coexprLo        = 3
	coexprGlom      = 0.8
	// coexprDensity is the target edge density of the thresholded
	// graph, the paper's graph-C density.
	coexprDensity = 0.002
)

// genCoexpr builds the seeded expression matrix.  Module sizes, signal
// classes and the terse/anti-correlated/overlapping pattern are fixed;
// the seed picks the member genes, the loadings and the noise.
//
// Enumeration cost grows as 2^omega, so the work is spread over many
// modules of similar size: genes whose noise happens to follow one
// module's factor then move the total by a few percent, not by the
// factor of two one dominant module showed.  Two large modules whose
// factors happen to correlate would merge into a larger clique (with 60
// conditions a chance factor correlation of 0.4 is not rare among 40
// modules), so a draw in which a module of separatedSize or more genes
// has a profile correlated above maxProfileCorr with another module's
// is discarded and the next draw from the same generator is taken.
func genCoexpr(seed int64, sz coexprSize) *repro.ExpressionMatrix {
	const separatedSize, maxProfileCorr = 10, 0.4
	rng := rand.New(rand.NewSource(seed))
	for {
		perm := rng.Perm(sz.genes)
		mods := make([]repro.ModuleSpec, sz.modules)
		own := make([][]int, sz.modules) // members no other module shares
		next := 0
		for i := range mods {
			size := sz.largest - i%5
			m := repro.ModuleSpec{Genes: perm[next : next+size], Signal: 4.5 + rng.Float64()}
			next += size
			own[i] = m.Genes
			switch {
			case i == 0:
				m.Signal = 5
			case i%4 == 3:
				m.Terse, m.Signal = true, 5 // a transitory association: half the conditions
			case i%5 == 2:
				m.Inverse = 2 // two repressed members
			}
			if i > 1 && i%3 == 0 {
				// Overlap: the module's last member also belongs to an
				// earlier module other than module 0.
				prev := own[1+rng.Intn(i-1)]
				own[i] = m.Genes[:size-1]
				m.Genes = append(append([]int(nil), own[i]...), prev[rng.Intn(len(prev))])
			}
			mods[i] = m
		}
		mat := repro.SynthesizeExpression(rng, repro.SyntheticConfig{
			Genes: sz.genes, Conditions: sz.conditions, Modules: mods,
		})
		profiles := make([][]float64, len(mods))
		for i, m := range mods {
			profiles[i] = make([]float64, sz.conditions)
			for gi, g := range own[i] {
				sign := 1.0
				if gi < m.Inverse {
					sign = -1
				}
				for c, v := range mat.Data[g] {
					profiles[i][c] += sign * v
				}
			}
		}
		separated := true
		for i := range mods {
			for j := i + 1; j < len(mods) && separated; j++ {
				big := len(own[i]) >= separatedSize || len(own[j]) >= separatedSize
				separated = !big || math.Abs(stats.Pearson(profiles[i], profiles[j])) <= maxProfileCorr
			}
		}
		if separated {
			return mat
		}
	}
}

// matrixDigest hashes a matrix's values, for the generation self-test.
func matrixDigest(m *repro.ExpressionMatrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m.Data {
		for _, v := range row {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func copyMatrix(m *repro.ExpressionMatrix) *repro.ExpressionMatrix {
	out := repro.NewExpressionMatrix(m.Genes, m.Conditions)
	for g, row := range m.Data {
		copy(out.Data[g], row)
	}
	return out
}

func paracliqueDigest(ps []repro.Paraclique) uint64 {
	d := newDigest()
	for _, p := range ps {
		d.word(p.CoreSize)
		d.Emit(p.Vertices)
	}
	return d.sum()
}

// coexprRef is the reference the measured passes are checked against,
// computed in set-up by the same pipeline on the sequential in-core
// backend.
type coexprRef struct {
	raw         *repro.ExpressionMatrix
	fingerprint string
	omega       int
	digest      uint64
	maximal     int64
	paras       uint64
	candidates  int64                 // Σ LevelStats.Cliques: exact, backend-independent
	levels      map[int]time.Duration // sequential per-level time, by consumed size
	graph       repro.GraphInterface
}

func coexprReference(raw *repro.ExpressionMatrix, sz coexprSize) (*coexprRef, error) {
	m := copyMatrix(raw)
	m.Normalize()
	th := repro.CorrelationThreshold(m, repro.SpearmanRank, edgeTarget(sz.genes))
	g, err := repro.CorrelationGraphRep(m, repro.SpearmanRank, th, repro.Auto)
	if err != nil {
		return nil, err
	}
	ref := &coexprRef{raw: raw, fingerprint: repro.Fingerprint(g), omega: repro.MaxCliqueSize(g), graph: g}
	d := newDigest()
	var st repro.Stats
	clock := newLevelClock(nil, "", 0, "")
	enum := repro.NewEnumerator(repro.WithBounds(coexprLo, 0), repro.WithStats(&st),
		repro.WithOnLevel(func(ls repro.LevelStats) { clock.tick(ls.FromK) }))
	if ref.maximal, err = enum.Run(context.Background(), g, d); err != nil {
		return nil, err
	}
	ref.digest, ref.levels = d.sum(), clock.levels
	for _, l := range st.Levels {
		ref.candidates += l.Cliques
	}
	ps, err := repro.NewEnumerator(repro.WithBounds(coexprLo, 0)).Paracliques(context.Background(), g, coexprGlom)
	if err != nil {
		return nil, err
	}
	ref.paras = paracliqueDigest(ps)
	return ref, nil
}

func edgeTarget(genes int) int { return int(coexprDensity * float64(genes*(genes-1)/2)) }

// coexprPass is what one measured pass observed.
type coexprPass struct {
	wall, first, threshold, graph, maxclique, enum, para time.Duration
	edges                                                int
	peak                                                 int64
	maximal                                              int64
	paracliques                                          int
	busyRatio                                            float64
	transfers                                            int
	levelMax                                             time.Duration
}

// pass runs the pipeline once, recording spans on tr (nil: untraced),
// and checks its outputs against ref.
func (ref *coexprRef) pass(run string, sz coexprSize, tr *tracer) (coexprPass, error) {
	var p coexprPass
	ctx := context.Background()
	root, endRoot := tr.begin("bench.coexpr_pass", 0, run)
	defer endRoot()
	start := time.Now()
	step := func(name string, f func()) time.Duration {
		_, end := tr.begin(name, root, run)
		t := time.Now()
		f()
		end()
		return time.Since(t)
	}

	m := copyMatrix(ref.raw)
	step("microarray.normalize", m.Normalize)
	var th float64
	p.threshold = step("microarray.threshold", func() {
		th = repro.CorrelationThreshold(m, repro.SpearmanRank, edgeTarget(sz.genes))
	})
	var g repro.GraphInterface
	var err error
	p.graph = step("microarray.graph", func() {
		g, err = repro.CorrelationGraphRep(m, repro.SpearmanRank, th, repro.Auto)
	})
	if err != nil {
		return p, fmt.Errorf("correlation graph: %w", err)
	}
	p.edges = g.M()
	var omega int
	p.maxclique = step("maxclique.size", func() { omega = repro.MaxCliqueSize(g) })

	d := newDigest()
	var st repro.Stats
	opts := []repro.Option{repro.WithBounds(coexprLo, 0), repro.WithWorkers(sz.workers), repro.WithStats(&st)}
	enumID, endEnum := tr.begin("enum.run", root, run)
	var clock *levelClock
	if tr != nil {
		clock = newLevelClock(tr, "enum.level", enumID, run)
		opts = append(opts, repro.WithOnLevel(func(ls repro.LevelStats) { clock.tick(ls.FromK) }))
	}
	t := time.Now()
	p.maximal, err = repro.NewEnumerator(opts...).Run(ctx, g, d)
	p.enum = time.Since(t)
	endEnum()
	if err != nil {
		return p, fmt.Errorf("enumerate: %w", err)
	}
	p.first = d.first.Sub(start)
	if clock != nil {
		p.levelMax = clock.longest
	}
	var busy float64
	for _, b := range st.WorkerBusy {
		busy += b
	}
	p.busyRatio = busy / (p.enum.Seconds() * float64(sz.workers))
	p.transfers = st.Transfers

	var ps []repro.Paraclique
	var pst repro.Stats
	p.para = step("paraclique.extract", func() {
		ps, err = repro.NewEnumerator(repro.WithBounds(coexprLo, 0), repro.WithStats(&pst)).
			Paracliques(ctx, g, coexprGlom)
	})
	if err != nil {
		return p, fmt.Errorf("paracliques: %w", err)
	}
	p.paracliques = len(ps)
	p.peak = max(st.PeakBytes, pst.PeakBytes)
	p.wall = time.Since(start)

	switch {
	case repro.Fingerprint(g) != ref.fingerprint:
		return p, fmt.Errorf("correlation graph fingerprint differs from the reference")
	case omega != ref.omega:
		return p, fmt.Errorf("omega %d, reference %d", omega, ref.omega)
	case d.sum() != ref.digest || p.maximal != ref.maximal:
		return p, fmt.Errorf("clique stream (%d cliques) differs from the reference (%d)", p.maximal, ref.maximal)
	case paracliqueDigest(ps) != ref.paras:
		return p, fmt.Errorf("paraclique set differs from the reference")
	}
	return p, nil
}

func runCoexpr(cfg config) (*result, error) {
	sz := coexprTiny
	if cfg.full {
		sz = coexprFull
	}
	var ref *coexprRef
	setup, err := measureSetup(coexprSetupReps, func() error {
		var err error
		ref, err = coexprReference(genCoexpr(cfg.seed, sz), sz)
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.corrupt {
		ref.digest ^= 1
	}
	res := newResult()
	res.set("setup_s", setup, coexprSetupReps)
	if cfg.trace {
		res.tr = newTracer()
	}

	if err := resetRSSPeak(); err != nil {
		return nil, err
	}
	var plain, traced []coexprPass
	timedPasses(cfg.measure, func(i int) {
		tr := res.tr
		if i%2 == 0 {
			tr = nil // a traced run alternates untraced and traced passes
		}
		p, err := ref.pass(fmt.Sprintf("pass-%d", i), sz, tr)
		res.op(err)
		switch {
		case err != nil:
			// A failed pass counts against error_rate, not in the timings.
		case tr == nil:
			plain = append(plain, p)
		default:
			traced = append(traced, p)
		}
	})

	pick := medianOf[coexprPass]
	wall := func(p coexprPass) float64 { return seconds(p.wall) }
	res.set("wall_s", pick(plain, wall), len(plain))
	var busy time.Duration
	for _, p := range plain {
		busy += p.wall
	}
	res.set("ops_per_s", ratio(float64(len(plain)), busy.Seconds()), len(plain))
	res.set("first_ms", pick(plain, func(p coexprPass) float64 { return millis(p.first) }), len(plain))
	res.set("peak_mb", pick(plain, func(p coexprPass) float64 { return float64(p.peak) / 1e6 }), len(plain))
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss, 1)
	if !cfg.trace {
		return res, nil
	}

	n := len(traced)
	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	res.set("trace.overhead_s", pick(traced, wall)-pick(plain, wall), n)
	res.set("microarray.threshold_s", pick(traced, func(p coexprPass) float64 { return seconds(p.threshold) }), n)
	res.set("microarray.graph_s", pick(traced, func(p coexprPass) float64 { return seconds(p.graph) }), n)
	res.set("microarray.edges", pick(traced, func(p coexprPass) float64 { return float64(p.edges) }), n)
	res.set("maxclique.s", pick(traced, func(p coexprPass) float64 { return seconds(p.maxclique) }), n)
	enumS := pick(traced, func(p coexprPass) float64 { return seconds(p.enum) })
	res.set("enum.s", enumS, n)
	res.set("enum.candidates", float64(ref.candidates), 1)
	res.set("enum.maximal", float64(ref.maximal), 1)
	res.set("enum.yield", ratio(float64(ref.maximal), float64(ref.candidates)), 1)
	res.set("enum.ns_per_candidate", ratio(enumS*1e9, float64(ref.candidates)), n)
	res.set("enum.busy_ratio", pick(traced, func(p coexprPass) float64 { return p.busyRatio }), n)
	res.set("enum.transfers", pick(traced, func(p coexprPass) float64 { return float64(p.transfers) }), n)
	res.set("enum.level_max_s", pick(traced, func(p coexprPass) float64 { return seconds(p.levelMax) }), n)
	res.set("paraclique.s", pick(traced, func(p coexprPass) float64 { return seconds(p.para) }), n)
	res.set("paraclique.count", pick(traced, func(p coexprPass) float64 { return float64(p.paracliques) }), n)
	if err := ref.costUnits(res); err != nil {
		return nil, err
	}
	res.setSelfTimes(n)
	res.zeroLayers()
	return res, nil
}

// costUnits joins simarch's per-level cost units for the coexpr graph
// with the per-level times the sequential reference run measured, and
// reports the rate (ns per unit over all levels) and its spread across
// levels (interquartile range over median of the per-level rates).
// Levels under a millisecond are left out of the spread: their clock
// resolution, not their cost, sets their rate.
func (ref *coexprRef) costUnits(res *result) error {
	dense, err := repro.ConvertGraph(ref.graph, repro.Dense)
	if err != nil {
		return err
	}
	tr, err := simarch.Collect(dense.(*repro.Graph), coexprLo, 0)
	if err != nil {
		return fmt.Errorf("simarch: %w", err)
	}
	var units int64
	var elapsed time.Duration
	var rates []float64
	for i, lt := range tr.Levels {
		var u int64
		for _, c := range lt.Costs {
			u += c
		}
		if i == 0 {
			u += tr.SeedUnits // the first level's time includes seeding
		}
		d := ref.levels[lt.K]
		units += u
		elapsed += d
		if d >= time.Millisecond && u > 0 {
			rates = append(rates, float64(d.Nanoseconds())/float64(u))
		}
	}
	if units == 0 {
		return fmt.Errorf("simarch: no cost units collected")
	}
	rate := median(rates)
	res.set("simarch.ns_per_unit", float64(elapsed.Nanoseconds())/float64(units), len(tr.Levels))
	spread := 0.0
	if rate > 0 {
		spread = (quantile(rates, 0.75) - quantile(rates, 0.25)) / rate
	}
	res.set("simarch.unit_spread", spread, len(rates))
	return nil
}
