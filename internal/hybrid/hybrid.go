// Package hybrid is the adaptive in-core -> out-of-core enumerator: the
// resolution of the paper's central tension.  The in-core Clique
// Enumerator is fast but dies when candidate storage outgrows RAM (the
// graph-B run that "consumed 607 GB ... when it was terminated after 12
// hours"); the out-of-core engine survives any level but pays
// "intensive disk I/O" from its first record.  The hybrid backend runs
// the in-core machinery — sequential or the streaming worker pool —
// under the memory governor (package membudget), and the moment the
// governor trips it drains the level being generated to run-aligned
// out-of-core shard files and hands the run to the disk-backed engine:
// memory-priced while the run fits, disk-priced only from the level
// that stopped fitting.
//
// The drained stream is byte-identical to a pure in-core run's:
//
//   - The in-core backends emit, and retain candidates, in canonical
//     order, and outputs of input sub-list i sort strictly before
//     outputs of input j > i.  A trip therefore yields a consistent cut:
//     for some frontier f, everything for inputs < f has been emitted
//     and retained; inputs >= f are untouched (the parallel pool's
//     sched.Sequencer enforces exactly this, discarding any
//     out-of-order window beyond the frontier).
//   - The drain writes the retained sub-lists' records — the sorted head
//     of the produced level — then joins the remaining inputs with a
//     core.Builder in spill mode, which emits their maximal cliques in
//     order and appends the surviving candidates to the same sorted
//     record stream.
//   - The produced level is then a complete, sorted, run-aligned level
//     file, exactly what ooc.Continue expects; the out-of-core engine's
//     own ordering invariant (DESIGN.md §0c) carries the stream to the
//     end of the run.
//
// Governor accounting across the switch: retained head sub-lists are
// released as their records leave for disk, discarded window results
// are released by the pool, the consumed level is released when its
// drain completes, and the out-of-core engine charges only its I/O
// buffers — so Peak records the true high-water mark and Used falls
// back under budget the moment the spill lands.
package hybrid

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/parallel"
)

// Options configures Enumerate.
type Options struct {
	// Ctx, when non-nil, cancels the run at the usual backend
	// cancellation points (per sub-list batch in core, per chunk in the
	// pool, per record batch out of core).
	Ctx context.Context
	// Lo, Hi bound the clique sizes of interest, as in core.Options.
	Lo, Hi int
	// Mode is the common-neighbor bitmap policy of the in-core phase.
	Mode core.CNMode
	// Workers selects the in-core engine (1 = sequential, > 1 = the
	// streaming pool) and is reused as the out-of-core join width after
	// a spill.
	Workers int
	// Strategy is the pool dispatch policy (Workers > 1).
	Strategy enumcfg.Strategy
	// ReportSmall additionally reports maximal 1-/2-cliques (sequential
	// in-core phase only; they are emitted before any level work, so a
	// later spill never affects them).
	ReportSmall bool
	// Dir is the spill directory the out-of-core phase uses (required).
	Dir string
	// SpillBudget, when positive, bounds one out-of-core level's file
	// bytes after a spill, as in ooc.Options.MaxLevelBytes.
	SpillBudget int64
	// Compress delta-varint encodes spilled level records.
	Compress bool
	// MemoryBudget seeds a private governor when Gov is nil.
	MemoryBudget int64
	// Gov is the run's shared memory governor; its budget is the spill
	// trigger.  An unlimited governor (budget 0) never spills.
	Gov *membudget.Governor
	// Reporter receives every maximal clique, in the same ordered stream
	// a pure in-core run delivers.
	Reporter clique.Reporter
	// OnLevel observes each generation step, in-core or spilled.
	OnLevel func(LevelStats)
}

// LevelStats is one generation step of a hybrid run.
type LevelStats struct {
	FromK         int
	Sublists      int   // in-core steps; 0 after the spill
	Cliques       int64 // candidate cliques consumed
	Maximal       int64 // maximal (FromK+1)-cliques reported
	ResidentBytes int64 // in-core: paper-formula resident; spilled: level file bytes
	Spilled       bool  // this step ran (at least partly) out of core
}

// Result summarizes a hybrid run.
type Result struct {
	MaximalCliques int64
	MaxCliqueSize  int
	// SpilledAtLevel is the clique size of the level that was being
	// generated when the governor tripped — the size of the records the
	// drain wrote.  0 means the whole run stayed in core.
	SpilledAtLevel int
	// OOC is the out-of-core engine's I/O accounting for the spilled
	// phase (zero when the run never spilled).
	OOC ooc.Stats
}

// OptionsFromConfig derives hybrid Options from the unified backend
// config.  Reporter, OnLevel and Gov are left for the caller.
func OptionsFromConfig(c enumcfg.Config) Options {
	return Options{
		Ctx:          c.Ctx,
		Lo:           c.Lo,
		Hi:           c.Hi,
		Mode:         c.Mode,
		Workers:      c.Workers,
		Strategy:     c.Strategy,
		ReportSmall:  c.ReportSmall,
		Dir:          c.Dir,
		SpillBudget:  c.SpillBudget,
		Compress:     c.OOCCompress,
		MemoryBudget: c.MemoryBudget,
	}
}

// runner is one Enumerate invocation's state.
type runner struct {
	g    graph.Interface
	opts Options
	gov  *membudget.Governor
	rep  clique.Reporter // the driver's counting reporter, set on the trip
	bits *bitset.Pool
	res  *Result
}

// Enumerate runs the adaptive enumeration: the in-core level driver
// (core.Drive) on the sequential runner or the streaming pool, with the
// drain as its trip handler.  The emitted clique stream — order
// included — is identical to the sequential in-core backend's for any
// budget, worker count and trip point.
func Enumerate(g graph.Interface, opts Options) (*Result, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("hybrid: Dir is required")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.ReportSmall && opts.Workers > 1 {
		return nil, fmt.Errorf("hybrid: ReportSmall requires the sequential in-core phase")
	}
	gov := opts.Gov
	if gov == nil {
		gov = membudget.New(opts.MemoryBudget)
	}
	h := &runner{
		g:    g,
		opts: opts,
		gov:  gov,
		bits: bitset.NewPool(g.N()),
		res:  &Result{},
	}
	var run core.LevelRunner
	var closeRun func()
	if opts.Workers > 1 {
		p, err := parallel.NewPool(g, parallel.Options{
			Workers:  opts.Workers,
			Mode:     opts.Mode,
			Strategy: opts.Strategy,
			Gov:      gov,
		})
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		run, closeRun = p, p.Close
	} else {
		s := core.NewSequentialRunner(g, opts.Mode, gov)
		run, closeRun = s, s.Close
	}
	defer closeRun()
	var onLevel func(core.LevelStats)
	if opts.OnLevel != nil {
		onLevel = func(ls core.LevelStats) {
			opts.OnLevel(LevelStats{
				FromK:         ls.FromK,
				Sublists:      ls.Sublists,
				Cliques:       ls.Cliques,
				Maximal:       ls.Maximal,
				ResidentBytes: ls.Bytes + ls.NextBytes,
			})
		}
	}
	res, err := core.Drive(g, core.Options{
		Ctx:         opts.Ctx,
		Lo:          opts.Lo,
		Hi:          opts.Hi,
		Reporter:    opts.Reporter,
		ReportSmall: opts.ReportSmall,
		Mode:        opts.Mode,
		Gov:         gov,
		OnLevel:     onLevel,
	}, opts.Workers, run, func(t core.Trip) error {
		// Outputs for inputs below the frontier were emitted and their
		// survivors retained; the pool discarded its window beyond it.
		// Close the runner before the serial drain so its scratch leaves
		// the accounting.
		closeRun()
		h.rep = t.Reporter
		return h.drain(t.Level, t.Out.Next.Sub, t.Level.Sub[t.Out.Frontier:], t.Out.Stats.Maximal, t.Bytes)
	})
	if res != nil {
		h.res.MaximalCliques, h.res.MaxCliqueSize = res.MaximalCliques, res.MaxCliqueSize
	}
	return h.res, err
}

func (h *runner) ctx() context.Context {
	if h.opts.Ctx == nil {
		return context.Background()
	}
	return h.opts.Ctx
}

// drain switches the run out of core mid-step.  lvl is the consumed
// level (size k); head holds the produced (k+1)-sub-lists retained for
// inputs before the trip frontier, in canonical order; rest holds the
// unjoined input sub-lists from the frontier on.  The produced level
// leaves for disk as one sorted record stream — head records verbatim,
// then the rest's surviving candidates via a spill-mode builder that
// emits their maximal cliques in order — and ooc.Continue runs the level
// loop from there.
func (h *runner) drain(lvl *core.Level, head, rest []*core.SubList, stepMaximal int64, lvlBytes int64) error {
	g, opts := h.g, h.opts
	k := lvl.K + 1 // size of the records being drained
	h.res.SpilledAtLevel = k

	var headCliques int64
	for _, s := range head {
		headCliques += int64(len(s.Tails))
	}
	rawHint := (headCliques + lvl.Cliques()) * 4 * int64(k)

	drainMaximal := stepMaximal
	consumedReleased := false
	oocOpts := ooc.Options{
		Ctx:           opts.Ctx,
		Dir:           opts.Dir,
		Reporter:      h.rep,
		MaxK:          opts.Hi,
		MaxLevelBytes: opts.SpillBudget,
		Workers:       opts.Workers,
		Compress:      opts.Compress,
		Gov:           h.gov,
		OnLevel: func(ls ooc.LevelStats) {
			h.observe(LevelStats{
				FromK:         ls.FromK,
				Cliques:       ls.Cliques,
				Maximal:       ls.Maximal,
				ResidentBytes: ls.FileBytes + ls.NextBytes,
				Spilled:       true,
			})
		},
	}
	st, err := ooc.Continue(g, oocOpts, k, rawHint, func(write func(rec []uint32) error) error {
		rec := make([]uint32, k)
		for i, s := range head {
			if i&63 == 0 && h.ctx().Err() != nil {
				return fmt.Errorf("hybrid: canceled draining level %d: %w", k, h.ctx().Err())
			}
			copy(rec, s.Prefix)
			for _, t := range s.Tails {
				rec[k-1] = t
				if err := write(rec); err != nil {
					return err
				}
			}
			// The head sub-list is on disk now; its resident charge goes.
			h.gov.Release(s.MemBytes(g.N()))
			if s.CN != nil {
				h.bits.Put(s.CN)
				s.CN = nil
			}
		}
		// Join the un-drained inputs with a spill-mode builder: maximal
		// cliques keep flowing to the reporter in canonical order, and
		// survivors append to the same sorted record stream.  Inputs
		// whose bitmaps were already consumed (a discarded parallel
		// window) reconstruct their prefix CN from adjacency rows.
		db := core.NewBuilderMode(g, opts.Mode, h.bits)
		db.Spill = write
		for i, s := range rest {
			if i&63 == 0 && h.ctx().Err() != nil {
				return fmt.Errorf("hybrid: canceled draining level %d: %w", k, h.ctx().Err())
			}
			db.ProcessSubList(s, h.rep)
			if db.SpillErr != nil {
				return db.SpillErr
			}
		}
		drainMaximal += db.Maximal
		// The consumed level is fully joined and on disk: release it now,
		// inside the feed, so the out-of-core phase runs with Used back
		// under budget instead of carrying the spilled level's bytes to
		// the end of the run.
		h.gov.Release(lvlBytes)
		consumedReleased = true
		// The drained step k-1 -> k is complete here, before the
		// out-of-core loop reports any later level, so observers see the
		// steps in generation order.
		h.observe(LevelStats{
			FromK:         lvl.K,
			Sublists:      len(lvl.Sub),
			Cliques:       lvl.Cliques(),
			Maximal:       drainMaximal,
			ResidentBytes: lvlBytes,
			Spilled:       true,
		})
		return nil
	})
	if !consumedReleased {
		// The drain aborted mid-feed (cancellation, I/O error): the level
		// is abandoned with the run, but the ledger still balances.
		h.gov.Release(lvlBytes)
	}
	h.res.OOC = st
	if err != nil {
		return fmt.Errorf("hybrid: spilled at level %d: %w", k, err)
	}
	return nil
}

func (h *runner) observe(ls LevelStats) {
	if h.opts.OnLevel != nil {
		h.opts.OnLevel(ls)
	}
}
