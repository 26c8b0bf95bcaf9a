package core

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// This file is the one in-core level loop, the in-core counterpart of
// the out-of-core driver (ooc.Drive).  The driver owns everything about
// a run except who joins a level's sub-lists: the Lo/Hi defaults and
// bounds, ReportSmall, seeding, the seed-level governor charge, the
// counting reporter, the cancel checks with their releases, the level
// statistics and OnLevel, and the consumed-level and final-level
// releases.  The joins go through the LevelRunner seam: one Builder
// (SequentialRunner) or the streaming worker pool (parallel.Pool).

// LevelRunner joins one in-core level.
type LevelRunner interface {
	// RunLevel joins the sub-lists of lvl (homes records their creator
	// workers, for runners that schedule by ownership), reporting maximal
	// cliques to rep in canonical order.  trip, when non-nil, is the
	// budget predicate: the runner stops before the first unit of work
	// (sub-list or chunk) at which it holds, and reports the consistent
	// cut documented on LevelOutcome.
	RunLevel(ctx context.Context, lvl *Level, homes []int32, rep clique.Reporter, trip func() bool) LevelOutcome
}

// LevelOutcome is one RunLevel's result.  When the level ran to
// completion, Next/Homes describe the produced level and Frontier equals
// the input sub-list count.  When the trip callback (or a context
// cancellation) stopped it early, outputs were delivered in exact
// canonical order for inputs [0, Frontier) only: Next holds precisely
// their surviving sub-lists, every deposited-but-unreleased result
// beyond the frontier has been discarded (and its governor charges
// reconciled), and inputs [Frontier, n) are untouched input again — the
// consistent cut the hybrid drain resumes from.
type LevelOutcome struct {
	Next     *Level
	Homes    []int32
	Stats    LevelStats
	Frontier int
	Tripped  bool
}

// Trip is a level the governor stopped early, handed to a TripHandler.
type Trip struct {
	Level *Level       // the consumed level
	Out   LevelOutcome // the cut: Out.Next is the head below Out.Frontier
	Bytes int64        // the consumed level's governor charge, still held
	// Reporter is the run's counting reporter: what the handler emits
	// through it is counted in the Result Drive returns.
	Reporter clique.Reporter
}

// TripHandler takes a tripped level over, and with it the rest of the
// run: it owns Trip.Bytes and the charges of the head sub-lists, and its
// error is the run's.
type TripHandler func(Trip) error

// Drive runs the Clique Enumerator on g with run joining every level.
// workers sizes the seeders (one worker seeds sequentially).  opts.Gov
// is used as given — callers derive it from MemoryBudget before they
// build the runner that charges it.  On a trip, onTrip takes the run
// over; with no handler the tripped level is recorded and the run aborts
// with an error wrapping ErrMemoryBudget.
//
//repro:ctxloop
func Drive(g graph.Interface, opts Options, workers int, run LevelRunner, onTrip TripHandler) (*Result, error) {
	if opts.Lo == 0 {
		opts.Lo = 2
	}
	if err := enumcfg.CheckBounds(opts.Lo, opts.Hi); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.Mode < CNStore || opts.Mode > CNCompress {
		return nil, fmt.Errorf("core: unknown CN mode %d", opts.Mode)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{}
	// Seed, small-clique and trip-handler emissions flow through the
	// counting reporter; level emissions go to the caller's reporter as
	// is (a nil one lets the pool skip its emission copies) and are
	// counted from the level statistics.
	count := clique.ReporterFunc(func(c clique.Clique) {
		res.MaximalCliques++
		res.MaxCliqueSize = max(res.MaxCliqueSize, len(c))
		if opts.Reporter != nil {
			opts.Reporter.Emit(c)
		}
	})

	var lvl *Level
	var homes []int32
	if opts.Lo <= 2 {
		if opts.ReportSmall {
			reportSmall(g, opts.Lo, count)
		}
		lvl, homes = SeedFromEdgesParallel(g, opts.Mode, workers)
	} else {
		var err error
		lvl, homes, _, err = SeedFromKParallel(g, opts.Lo, opts.Mode, workers, count)
		if err != nil {
			return res, err
		}
	}
	// The governor is the single accounting authority: the seed level is
	// charged up front, each kept sub-list is charged as it is retained
	// (Builder.keep), and a consumed level is released at its step
	// boundary — so Used tracks the paper's resident formula (consumed +
	// produced) continuously.  A level's bytes and cliques are taken once,
	// when it is produced: its join recycles the bitmaps Bytes counts.
	gov := opts.Gov
	lvlBytes, lvlCliques := lvl.Bytes(g.N()), lvl.Cliques()
	gov.Charge(lvlBytes)
	var trip func() bool
	if gov.Budget() > 0 {
		trip = gov.Over
	}
	for len(lvl.Sub) > 0 && (opts.Hi == 0 || lvl.K+1 <= opts.Hi) {
		if err := ctx.Err(); err != nil {
			gov.Release(lvlBytes) // retire the level before aborting
			return res, fmt.Errorf("core: canceled before level %d->%d: %w", lvl.K, lvl.K+1, err)
		}
		out := run.RunLevel(ctx, lvl, homes, opts.Reporter, trip)
		res.MaximalCliques += out.Stats.Maximal
		if out.Stats.Maximal > 0 {
			res.MaxCliqueSize = max(res.MaxCliqueSize, lvl.K+1)
		}
		if err := ctx.Err(); err != nil {
			// The consumed level and the head of the next level retained
			// below the frontier are both still charged; retire them so a
			// shared governor stays balanced.
			gov.Release(lvlBytes + out.Next.Bytes(g.N()))
			return res, fmt.Errorf("core: canceled during level %d->%d: %w", lvl.K, lvl.K+1, err)
		}
		if out.Tripped && onTrip != nil {
			return res, onTrip(Trip{Level: lvl, Out: out, Bytes: lvlBytes, Reporter: count})
		}
		st := out.Stats
		st.FromK, st.Sublists, st.Cliques, st.Bytes = lvl.K, len(lvl.Sub), lvlCliques, lvlBytes
		st.NextSub, st.NextCl, st.NextBytes = len(out.Next.Sub), out.Next.Cliques(), out.Next.Bytes(g.N())
		res.record(st)
		if opts.OnLevel != nil {
			opts.OnLevel(st)
		}
		if out.Tripped {
			// gov.Err() reports Peak, so retiring the level first does not
			// distort the message.
			gov.Release(st.Bytes + st.NextBytes)
			return res, fmt.Errorf("core: level %d->%d: %w", lvl.K, lvl.K+1, gov.Err())
		}
		gov.Release(lvlBytes) // the consumed level is retired
		lvl, homes = out.Next, out.Homes
		lvlBytes, lvlCliques = st.NextBytes, st.NextCl
	}
	gov.Release(lvlBytes) // the final (empty or Hi-cut) level
	return res, nil
}

// record folds one level's statistics into the run totals.
func (r *Result) record(st LevelStats) {
	r.Levels = append(r.Levels, st)
	r.TotalCost.Add(st.Cost)
	r.PeakBytes = max(r.PeakBytes, st.Bytes+st.NextBytes)
	r.Transfers += st.Transfers
	if r.WorkerBusy == nil && st.WorkerBusy != nil {
		r.WorkerBusy = make([]float64, len(st.WorkerBusy))
	}
	for w, busy := range st.WorkerBusy {
		r.WorkerBusy[w] += busy
	}
}

// SequentialRunner is the one-thread LevelRunner: one Builder joins a
// whole level in input order.  Its scratch bitmaps are charged to the
// governor from construction to Close, as the pool charges its workers'.
type SequentialRunner struct {
	b       *Builder
	scratch int64
	closed  bool
}

// NewSequentialRunner returns a runner over g in the given bitmap mode
// whose kept sub-lists and scratch are charged to gov (which may be nil).
// Close must be called to release the scratch charge.
func NewSequentialRunner(g graph.Interface, mode CNMode, gov *membudget.Governor) *SequentialRunner {
	b := NewBuilderMode(g, mode, bitset.NewPool(g.N()))
	b.Gov = gov
	r := &SequentialRunner{b: b, scratch: b.ScratchBytes()}
	gov.Charge(r.scratch)
	return r
}

// Close releases the scratch charge.  Idempotent.
func (r *SequentialRunner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.b.Gov.Release(r.scratch)
}

// RunLevel joins lvl on the runner's builder.  It polls ctx every 64
// sub-lists and trip before every sub-list, stopping at the first one at
// which either holds; homes is ignored.  The returned level shares the
// builder's arena storage, so it must be consumed within one further
// RunLevel (see Builder.Reset).
//
//repro:ctxloop
func (r *SequentialRunner) RunLevel(ctx context.Context, lvl *Level, _ []int32, rep clique.Reporter, trip func() bool) LevelOutcome {
	b := r.b
	b.Reset()
	out := LevelOutcome{Frontier: len(lvl.Sub)}
	for i, s := range lvl.Sub {
		if i&63 == 0 && ctx.Err() != nil {
			out.Frontier = i
			break
		}
		if trip != nil && trip() {
			out.Frontier, out.Tripped = i, true
			break
		}
		b.ProcessSubList(s, rep)
	}
	out.Next = &Level{K: lvl.K + 1, Sub: b.Next}
	out.Stats = LevelStats{Maximal: b.Maximal, Dropped: b.Dropped, Cost: b.Cost}
	return out
}
