package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/expt"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

// The spill workload runs one graph under a memory cap through every
// out-of-core path: hybrid with a governor at a quarter of the in-core
// peak (it spills mid-run), ooc with 2 workers, and dist over the
// in-process loopback transport with 2 workers, all with compressed
// level files.  Each backend's ordered stream is checked against the
// sequential in-core stream computed in set-up.

type spillSize struct {
	scale   float64 // of the paper's graph C
	workers int
}

var (
	// Full-scale C exhausts 8 GB in core.  x0.75 has a 62 MB in-core
	// peak and a ~2 s pass, short enough for a run to hold a dozen.
	spillFull = spillSize{scale: 0.75, workers: 2}
	spillTiny = spillSize{scale: 0.3, workers: 2}
)

const (
	spillLo = 3 // ooc and dist report maximal cliques of size >= 3
	// spillSetupReps is larger than the other workloads': one set-up
	// takes well under a second, so more repetitions steady the median.
	spillSetupReps = 5
)

func genSpill(seed int64, sz spillSize) *repro.Graph {
	return expt.Build(expt.SpecC.Scale(sz.scale), seed)
}

type spillRef struct {
	g       *repro.Graph
	digest  uint64
	maximal int64
	peak    int64 // in-core governor peak
	maxStep int64 // largest per-level resident bytes in core
	core    time.Duration
}

func spillReference(g *repro.Graph) (*spillRef, error) {
	ref := &spillRef{g: g}
	d := newDigest()
	var st repro.Stats
	enum := repro.NewEnumerator(repro.WithBounds(spillLo, 0), repro.WithStats(&st),
		repro.WithOnLevel(func(ls repro.LevelStats) { ref.maxStep = max(ref.maxStep, ls.ResidentBytes) }))
	start := time.Now()
	n, err := enum.Run(context.Background(), g, d)
	ref.core = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("in-core reference: %w", err)
	}
	ref.digest, ref.maximal, ref.peak = d.sum(), n, st.PeakBytes
	return ref, nil
}

// spillPass is what one pass over the three backends observed.
type spillPass struct {
	wall, hybrid, ooc, dist time.Duration
	first                   time.Duration // mean time to first clique over the backends
	peak                    int64         // largest governor peak of the three
	spillLevel              int
	hybridPeak, budget      int64
	oocStats                ooc.Stats
	releases                int
}

// hybridAllowance is how far the hybrid backend's governor peak may
// exceed its budget: the level resident when the trip was detected plus
// the spill machinery's bounded I/O buffers (one writer and one reader
// per worker plus two, 1 MiB each) — the bound the hybrid package's own
// TestPeakStaysNearBudget pins.
func (ref *spillRef) hybridAllowance(workers int) int64 {
	return ref.maxStep + int64(2*workers+2)<<20
}

func (ref *spillRef) pass(run, dir string, sz spillSize, tr *tracer) (spillPass, error) {
	var p spillPass
	root, endRoot := tr.begin("bench.spill_pass", 0, run)
	defer endRoot()
	start := time.Now()
	var firsts time.Duration
	check := func(backend string, d *digest, gov *membudget.Governor, t time.Time) error {
		firsts += d.first.Sub(t)
		p.peak = max(p.peak, gov.Peak())
		switch {
		case d.sum() != ref.digest || d.n != ref.maximal:
			return fmt.Errorf("%s: stream of %d cliques differs from the in-core stream (%d)", backend, d.n, ref.maximal)
		case gov.Used() != 0:
			return fmt.Errorf("%s: governor holds %d bytes after the run", backend, gov.Used())
		}
		return nil
	}

	// hybrid: sequential in-core phase, spilling once the governor trips.
	// The budget is a quarter of the in-core run's peak less the graph
	// adjacency the facade charged, which hybrid.Enumerate does not.
	p.budget = (ref.peak - ref.g.Bytes()) / 4
	gov := membudget.New(p.budget)
	d := newDigest()
	id, end := tr.begin("hybrid.run", root, run)
	clock := newLevelClock(tr, "hybrid.level", id, run)
	t := time.Now()
	hres, err := hybrid.Enumerate(ref.g, hybrid.Options{
		Lo: spillLo, Workers: 1, Dir: filepath.Join(dir, "hybrid"), Compress: true,
		Gov: gov, Reporter: d, OnLevel: func(ls hybrid.LevelStats) { clock.tick(ls.FromK) },
	})
	p.hybrid = time.Since(t)
	end()
	if err != nil {
		return p, fmt.Errorf("hybrid: %w", err)
	}
	p.spillLevel, p.hybridPeak = hres.SpilledAtLevel, gov.Peak()
	if err := check("hybrid", d, gov, t); err != nil {
		return p, err
	}
	if p.spillLevel == 0 {
		return p, fmt.Errorf("hybrid: budget %d did not trip a spill", p.budget)
	}
	if allow := ref.hybridAllowance(1); p.hybridPeak > p.budget+allow {
		return p, fmt.Errorf("hybrid: governor peak %d exceeds budget %d + drain allowance %d", p.hybridPeak, p.budget, allow)
	}

	// ooc: the whole run out of core, joins on sz.workers workers.
	gov = membudget.New(0)
	d = newDigest()
	id, end = tr.begin("ooc.run", root, run)
	clock = newLevelClock(tr, "ooc.level", id, run)
	t = time.Now()
	p.oocStats, err = ooc.Enumerate(ref.g, ooc.Options{
		Dir: filepath.Join(dir, "ooc"), Workers: sz.workers, Compress: true,
		Gov: gov, Reporter: d, OnLevel: func(ls ooc.LevelStats) { clock.tick(ls.FromK) },
	})
	p.ooc = time.Since(t)
	end()
	if err != nil {
		return p, fmt.Errorf("ooc: %w", err)
	}
	if err := check("ooc", d, gov, t); err != nil {
		return p, err
	}

	// dist: coordinator plus sz.workers loopback workers.  The run
	// directory keeps its audit report, so each run gets a fresh one.
	distDir := filepath.Join(dir, "dist-"+run)
	gov = membudget.New(0)
	d = newDigest()
	id, end = tr.begin("dist.run", root, run)
	clock = newLevelClock(tr, "dist.level", id, run)
	t = time.Now()
	dst, err := dist.Enumerate(ref.g, dist.Options{
		Dir: distDir, Workers: sz.workers, Transport: &dist.LoopbackTransport{}, Compress: true,
		Gov: gov, Reporter: d, OnLevel: func(ls ooc.LevelStats) { clock.tick(ls.FromK) },
	})
	p.dist = time.Since(t)
	end()
	if rerr := os.RemoveAll(distDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		return p, fmt.Errorf("dist: %w", err)
	}
	p.releases = dst.Releases
	if err := check("dist", d, gov, t); err != nil {
		return p, err
	}
	if p.releases != 0 {
		return p, fmt.Errorf("dist: %d leases re-run without an injected fault", p.releases)
	}
	p.first = firsts / 3
	p.wall = time.Since(start)
	return p, nil
}

func runSpill(cfg config) (*result, error) {
	sz := spillTiny
	if cfg.full {
		sz = spillFull
	}
	var ref *spillRef
	var cores []float64
	setup, err := measureSetup(spillSetupReps, func() error {
		var err error
		ref, err = spillReference(genSpill(cfg.seed, sz))
		if err == nil {
			cores = append(cores, seconds(ref.core))
		}
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.corrupt {
		ref.digest ^= 1
	}
	res := newResult()
	res.set("setup_s", setup, spillSetupReps)
	if cfg.trace {
		res.tr = newTracer()
	}

	if err := resetRSSPeak(); err != nil {
		return nil, err
	}
	var plain, traced []spillPass
	// Checked quantities are taken over every pass, failed ones included.
	var releases int
	var peakOverBudget float64
	timedPasses(cfg.measure, func(i int) {
		tr := res.tr
		if i%2 == 0 {
			tr = nil
		}
		p, err := ref.pass(fmt.Sprintf("pass-%d", i), cfg.dir, sz, tr)
		res.op(err)
		releases += p.releases
		peakOverBudget = max(peakOverBudget, ratio(float64(p.hybridPeak), float64(p.budget)))
		switch {
		case err != nil:
			// A failed pass counts against error_rate, not in the timings.
		case tr == nil:
			plain = append(plain, p)
		default:
			traced = append(traced, p)
		}
	})

	pick := medianOf[spillPass]
	wall := func(p spillPass) float64 { return seconds(p.wall) }
	res.set("wall_s", pick(plain, wall), len(plain))
	// An op is one backend run.
	var busy time.Duration
	for _, p := range plain {
		busy += p.wall
	}
	res.set("ops_per_s", ratio(float64(3*len(plain)), busy.Seconds()), 3*len(plain))
	res.set("first_ms", pick(plain, func(p spillPass) float64 { return millis(p.first) }), len(plain))
	res.set("peak_mb", pick(plain, func(p spillPass) float64 { return float64(p.peak) / 1e6 }), len(plain))
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
	coreS := median(cores)
	res.set("core.s", coreS, len(cores))
	res.set("hybrid.s", pick(traced, func(p spillPass) float64 { return seconds(p.hybrid) }), n)
	res.set("hybrid.spill_level", pick(traced, func(p spillPass) float64 { return float64(p.spillLevel) }), n)
	res.set("hybrid.peak_over_budget", peakOverBudget, int(res.attempted))
	oocS := pick(traced, func(p spillPass) float64 { return seconds(p.ooc) })
	res.set("ooc.s", oocS, n)
	res.set("ooc.overhead_x", ratio(oocS, coreS), n)
	st := func(f func(ooc.Stats) int64) float64 {
		return pick(traced, func(p spillPass) float64 { return float64(f(p.oocStats)) })
	}
	write := st(func(s ooc.Stats) int64 { return s.BytesWritten })
	read := st(func(s ooc.Stats) int64 { return s.BytesRead })
	res.set("ooc.write_mb", write/1e6, n)
	res.set("ooc.read_mb", read/1e6, n)
	res.set("ooc.compress_ratio", ratio(st(func(s ooc.Stats) int64 { return s.RawBytesWritten }), write), n)
	res.set("ooc.peak_level_mb", st(func(s ooc.Stats) int64 { return s.PeakLevelFile })/1e6, n)
	res.set("ooc.mb_per_s", ratio((write+read)/1e6, oocS), n)
	res.set("dist.s", pick(traced, func(p spillPass) float64 { return seconds(p.dist) }), n)
	res.set("dist.releases", float64(releases), int(res.attempted))
	res.setSelfTimes(n)
	res.zeroLayers()
	return res, nil
}
