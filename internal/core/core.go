package core

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/membudget"
	"repro/internal/wah"
)

// ErrMemoryBudget is returned (wrapped) when enumeration exceeds the
// memory budget — the in-library analogue of the paper's graph-B run
// that "consumed 607 GB ... and 404 GB ... when it was terminated after
// 12 hours".  It aliases the governor's sentinel, so every backend's
// budget abort satisfies the same errors.Is target.
var ErrMemoryBudget = membudget.ErrBudget

// Options configures Enumerate and the in-core level driver (Drive).
type Options struct {
	// Ctx, when non-nil, cancels the enumeration: the level loop checks
	// it before and after every generation step, and the runners check
	// it within a level (the sequential runner every 64 sub-lists, the
	// pool between chunks).  On cancellation the partial Result is
	// returned together with an error wrapping ctx.Err().
	Ctx context.Context
	// Lo is the smallest clique size of interest (the paper's Init_K).
	// When Lo <= 2 the enumeration seeds directly from the edge list;
	// otherwise the k-clique enumerator (package kclique) seeds the
	// candidate lists and reports the maximal Lo-cliques.  Default 2.
	Lo int
	// Hi, when positive, stops the enumeration after cliques of size Hi
	// have been generated — the upper bound obtained from a maximum
	// clique computation in the paper's pipeline.  0 means run until no
	// candidates remain.
	Hi int
	// Reporter receives each maximal clique (size in [max(Lo,3), Hi],
	// plus size-Lo maximal cliques when seeding with Lo >= 3, plus
	// 1- and 2-cliques only as enabled below).  May be nil to count only.
	Reporter clique.Reporter
	// ReportSmall additionally reports maximal 1-cliques (isolated
	// vertices) and maximal 2-cliques (edges with no common neighbor)
	// when Lo <= 2.  The paper's experiments start at size 3 and skip
	// these; tools that need complete covers enable it.
	ReportSmall bool
	// Mode is the common-neighbor bitmap policy: the paper's stored
	// bitmaps (CNStore, the zero value), its low-memory alternative that
	// rebuilds them with (k-2) extra ANDs per sub-list (CNRecompute), or
	// WAH-compressed bitmaps, its future-work direction (CNCompress).
	Mode CNMode
	// MemoryBudget, when positive, bounds the governor-accounted resident
	// bytes (seed level, retained candidates, builder scratch); exceeding
	// it aborts with ErrMemoryBudget.  Ignored when Gov is set.
	MemoryBudget int64
	// Gov, when non-nil, is the run's shared memory governor: the seed
	// level, the runner's scratch and every kept sub-list are charged
	// against it, consumed levels are released at step boundaries, and
	// enumeration aborts with ErrMemoryBudget once it reports Over.
	// Callers that charge other layers into the same governor (the
	// facade charges the graph representation's adjacency bytes) thereby
	// tighten the candidate headroom — one budget, one meaning of memory.
	// When nil, a private governor is derived from MemoryBudget.
	Gov *membudget.Governor
	// OnLevel, when non-nil, observes each generation step.
	OnLevel func(LevelStats)
}

// Result summarizes an enumeration run.
type Result struct {
	MaximalCliques int64        // total maximal cliques reported (all sizes)
	MaxCliqueSize  int          // largest maximal clique size seen
	Levels         []LevelStats // one entry per generation step
	PeakBytes      int64        // max paper-formula bytes resident at any step
	TotalCost      Cost
	WorkerBusy     []float64 // pool runs: total busy seconds per worker
	Transfers      int       // pool runs: sub-lists processed off their home worker
}

// OptionsFromConfig derives sequential-backend Options from the unified
// backend config.  Reporter and OnLevel are not part of the config and
// are left for the caller to fill.
func OptionsFromConfig(c enumcfg.Config) Options {
	return Options{
		Ctx:          c.Ctx,
		Lo:           c.Lo,
		Hi:           c.Hi,
		ReportSmall:  c.ReportSmall,
		Mode:         c.Mode,
		MemoryBudget: c.MemoryBudget,
	}
}

// Enumerate runs the Clique Enumerator over g — any graph representation
// — on one thread and returns run statistics.  Maximal cliques are
// reported in non-decreasing order of size; within a level, in canonical
// order.  The dense representation keeps its historical
// allocation-identical fast path; CSR and WAH graphs run through the
// generic row-access contract.
func Enumerate(g graph.Interface, opts Options) (*Result, error) {
	if opts.Gov == nil && opts.MemoryBudget > 0 {
		opts.Gov = membudget.New(opts.MemoryBudget)
	}
	run := NewSequentialRunner(g, opts.Mode, opts.Gov)
	defer run.Close()
	return Drive(g, opts, 1, run, nil)
}

// reportSmall emits maximal 1-cliques (when lo <= 1) and maximal
// 2-cliques (when lo <= 2).  These sizes fall outside the sub-list join
// machinery: a size-s maximal clique is only discovered when generated at
// step (s-1) -> s, so the two smallest sizes need direct checks.
func reportSmall(g graph.Interface, lo int, r clique.Reporter) {
	if lo <= 1 {
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 0 {
				r.Emit(clique.Clique{v})
			}
		}
	}
	scratch := bitset.New(g.N())
	graph.ForEachEdge(g, func(u, v int) bool {
		g.Materialize(u, scratch)
		g.Row(v).IntersectInto(scratch)
		if scratch.None() {
			r.Emit(clique.Clique{u, v})
		}
		return true
	})
}

// SeedFromK builds the initial candidate level at size k using the
// k-clique enumerator, reporting maximal k-cliques to r.  The returned
// level holds every non-maximal k-clique, grouped into sub-lists by
// shared (k-1)-prefix, with prefix common-neighbor bitmaps when storeCN
// is set.
func SeedFromK(g graph.Interface, k int, storeCN bool, r clique.Reporter) (*Level, kclique.Stats, error) {
	mode := CNStore
	if !storeCN {
		mode = CNRecompute
	}
	return SeedFromKMode(g, k, mode, r)
}

// SeedFromKMode is SeedFromK with an explicit bitmap mode.
func SeedFromKMode(g graph.Interface, k int, mode CNMode, r clique.Reporter) (*Level, kclique.Stats, error) {
	if k < 3 {
		return nil, kclique.Stats{}, fmt.Errorf("core: SeedFromK requires k >= 3, got %d", k)
	}
	lvl := &Level{K: k}
	var emitBuf clique.Clique
	st := kclique.Enumerate(g, kclique.Options{
		K: k,
		OnGroup: func(gr kclique.Group) {
			if r != nil {
				for _, t := range gr.MaximalTails {
					emitBuf = emitBuf[:0]
					emitBuf = append(emitBuf, gr.Prefix...)
					emitBuf = append(emitBuf, t)
					r.Emit(emitBuf)
				}
			}
			if s := sublistFromGroup(gr, mode); s != nil {
				lvl.Sub = append(lvl.Sub, s)
			}
		},
	})
	return lvl, st, nil
}

// sublistFromGroup copies one k-clique group (whose fields are borrowed)
// into an owned candidate sub-list, or returns nil when the paper's
// |S| > 1 rule discards it (a lone candidate cannot join).
func sublistFromGroup(gr kclique.Group, mode CNMode) *SubList {
	if len(gr.CandidateTails) < 2 {
		return nil
	}
	s := &SubList{
		Prefix: make([]uint32, len(gr.Prefix)),
		Tails:  make([]uint32, len(gr.CandidateTails)),
	}
	for i, p := range gr.Prefix {
		s.Prefix[i] = uint32(p)
	}
	for i, t := range gr.CandidateTails {
		s.Tails[i] = uint32(t)
	}
	switch mode {
	case CNStore:
		s.CN = gr.PrefixCN.Clone()
	case CNCompress:
		s.CNC = wah.Compress(gr.PrefixCN)
	}
	return s
}
