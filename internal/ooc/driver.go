package ooc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/sched"
)

// This file is the one out-of-core level loop.  The driver owns
// everything about a level except who joins its shards: the level
// statistics and OnLevel, the in-order release of emissions, maximal
// counts and the next shard list, the shard target and file naming, the
// edge spill, the manifest commits with their crash ordering, the
// stale-shard sweep, and the deletion of a level's partial outputs when
// it aborts.  The joins themselves go through the ShardExecutor seam:
// the in-process pool (pool.go) for Enumerate/Continue/Resume, and the
// lease table over a transport for the distributed coordinator.

// ShardExecutor joins the shards of one level.
type ShardExecutor interface {
	// JoinLevel joins every shard of lv, each one's next-level output
	// written into the run directory under the names its Task implies,
	// and hands each shard's result to lv.Deposit — exactly once per
	// shard index.  It returns only when none of the level's writers is
	// still running, so the driver's cleanup after an error can never
	// race a late write.
	JoinLevel(ctx context.Context, lv *Level) error
}

// ShardTask is one shard join's work order.  The JSON names are the
// distributed lease frame's.
type ShardTask struct {
	K       int       `json:"k,omitempty"`           // record size of the input shard
	Shard   ShardMeta `json:"shard,omitempty"`       // input shard to join
	Index   int       `json:"shard_index,omitempty"` // position in the level's shard list
	Attempt int       `json:"attempt,omitempty"`     // 1-based execution attempt, part of the output names
	Target  int64     `json:"target,omitempty"`      // output shard target bytes
	Collect bool      `json:"collect,omitempty"`     // buffer maximal emissions in the result
}

// ShardResult is one shard join's output: the next-level shards it
// wrote (in order), its maximal cliques (a flat vertex arena — no
// per-clique allocation — with one end offset per clique), and the
// encoded bytes it read.  The JSON names are the distributed result
// frame's.
type ShardResult struct {
	Out       []ShardMeta `json:"out,omitempty"`
	Maximal   int64       `json:"maximal,omitempty"`
	EmitVerts []int       `json:"emit_verts,omitempty"`
	EmitOff   []int32     `json:"emit_off,omitempty"`
	BytesRead int64       `json:"bytes_read,omitempty"`
}

// Level is one level's work order from the driver to its executor.
type Level struct {
	K      int         // clique size of the consumed level's records
	Shards []ShardMeta // the consumed level, in shard order
	// Releases is set by an executor that had to re-run shards (a
	// revoked lease); the driver records them in the run's manifest.
	Releases []ReleaseRecord

	target  int64
	collect bool
	seq     *sched.Sequencer[*ShardResult]
	wrote   func(enc, raw int64) error
	read    *atomic.Int64
}

// Task returns the work order for shard i at the given attempt.
func (lv *Level) Task(i, attempt int) ShardTask {
	return ShardTask{K: lv.K, Shard: lv.Shards[i], Index: i, Attempt: attempt,
		Target: lv.target, Collect: lv.collect}
}

// Deposit hands in shard i's result.  Results release in shard order,
// so the emission order and the next level's shard list are exactly a
// serial run's.
func (lv *Level) Deposit(i int, r *ShardResult) { lv.seq.Deposit(i, r) }

// Wrote accounts bytes written into the next level — live from a local
// writer, or once per accepted result from a remote one — and returns
// an ErrSpillBudget error once the level passes Options.MaxLevelBytes.
func (lv *Level) Wrote(enc, raw int64) error { return lv.wrote(enc, raw) }

// Read accounts encoded bytes read back from the consumed level.
func (lv *Level) Read(n int64) { lv.read.Add(n) }

// Drive runs a fresh out-of-core enumeration of g in opts.Dir, used as
// is, with exec joining every level — the entry for an executor outside
// this package.  role tags the Owner of the manifests a checkpointed run
// commits.  opts.Workers sizes the shards; running them is exec's job.
func Drive(g graph.Interface, opts Options, exec ShardExecutor, role string) (Stats, error) {
	if err := normalizeOptions(&opts); err != nil {
		return Stats{}, err
	}
	return newDriver(g, opts, opts.Dir, exec, role).enumerate()
}

// driver is one run's level loop state.  The I/O counters are atomics:
// a local executor accounts bytes the instant they move, which keeps
// aborted runs truthful.  Everything else is mutated in order — by the
// release callback under the sequencer lock during a level, by the loop
// between levels.
type driver struct {
	g     graph.Interface
	opts  Options
	dir   string
	exec  ShardExecutor
	owner Owner
	fp    string // graph fingerprint (checkpointed runs only)

	written    atomic.Int64
	rawWritten atomic.Int64
	read       atomic.Int64

	maximal     int64
	levels      int
	shardsTotal int64
	peak        int64
	spillSeq    int
	aborted     bool
	resumed     bool
	claimed     bool // this process owns the checkpoint dir (first commit done)
	releases    []ReleaseRecord
}

func newDriver(g graph.Interface, opts Options, dir string, exec ShardExecutor, role string) *driver {
	return &driver{g: g, opts: opts, dir: dir, exec: exec, owner: SelfOwner(role)}
}

// restore loads the cumulative counters of a checkpoint, so the resumed
// run's Stats continue where the interrupted run's boundary left off.
func (d *driver) restore(m *Manifest) {
	d.maximal = m.Stats.Maximal
	d.written.Store(m.Stats.BytesWritten)
	d.rawWritten.Store(m.Stats.RawBytesWritten)
	d.read.Store(m.Stats.BytesRead)
	d.peak = m.Stats.PeakLevelFile
	d.levels = m.Stats.Levels
	d.shardsTotal = m.Stats.Shards
	d.releases = m.Releases
	d.resumed = true
}

func (d *driver) stats() Stats {
	return Stats{
		Maximal:         d.maximal,
		BytesWritten:    d.written.Load(),
		RawBytesWritten: d.rawWritten.Load(),
		BytesRead:       d.read.Load(),
		PeakLevelFile:   d.peak,
		Levels:          d.levels,
		Shards:          d.shardsTotal,
		Aborted:         d.aborted,
		Resumed:         d.resumed,
	}
}

// enumerate is the fresh-run entry: spill the edge level, then run the
// level loop from k=2.
func (d *driver) enumerate() (Stats, error) {
	if d.opts.Checkpoint && d.fp == "" {
		d.fp = Fingerprint(d.g)
	}
	shards, err := d.spillLevel(2, 8*int64(d.g.M()), edgeFeed(d.opts.Ctx, d.g))
	if err != nil {
		return d.stats(), err
	}
	return d.run(shards, 2)
}

// continueFrom starts the loop from a level of size-k records supplied
// by feed (the hybrid handoff).
func (d *driver) continueFrom(k int, rawHint int64,
	feed func(write func(rec []uint32) error) error) (Stats, error) {
	shards, err := d.spillLevel(k, rawHint, feed)
	if err != nil {
		return d.stats(), err
	}
	return d.run(shards, k)
}

// run drives the level loop from the given level until no candidates
// remain (or MaxK / cancellation / the spill budget stops it).
//
//repro:ctxloop
func (d *driver) run(shards []ShardMeta, k int) (Stats, error) {
	if d.opts.Checkpoint {
		if err := d.commit(shards, k); err != nil {
			return d.stats(), err
		}
	}
	for levelRecords(shards) > 0 && (d.opts.MaxK == 0 || k < d.opts.MaxK) {
		if err := d.opts.Ctx.Err(); err != nil {
			// Between levels the checkpoint is already durable; just
			// stop.  Plain runs are cleaned up by their entry point.
			return d.stats(), fmt.Errorf("ooc: canceled before level %d->%d: %w", k, k+1, err)
		}
		next, err := d.runLevel(shards, k)
		if err != nil {
			return d.stats(), err
		}
		// Crash ordering (DESIGN.md §0c): the produced level is durable
		// before the manifest names it, and the consumed level — with any
		// orphan of a superseded attempt — is deleted only after the
		// manifest commits.
		if d.opts.Checkpoint {
			if err := d.commit(next, k+1); err != nil {
				return d.stats(), err
			}
		}
		if err := removeStaleShards(d.dir, next); err != nil {
			return d.stats(), err
		}
		shards, k = next, k+1
	}
	// Completion mirrors the boundary ordering: retire the manifest
	// BEFORE deleting the shards it names.  A kill between the two
	// leaves stray (unreferenced) shard files, never a manifest naming
	// deleted ones — the checkpoint is always either resumable or gone.
	if d.opts.Checkpoint {
		if err := RemoveManifest(d.dir); err != nil {
			return d.stats(), err
		}
	}
	return d.stats(), removeStaleShards(d.dir, nil)
}

// runLevel joins one level's shards on the executor and returns the
// next level's shard list.
func (d *driver) runLevel(shards []ShardMeta, k int) ([]ShardMeta, error) {
	d.levels++
	encB, rawB := LevelBytes(shards)
	d.peak = max(d.peak, encB)
	lst := LevelStats{
		FromK:        k,
		Cliques:      levelRecords(shards),
		Shards:       len(shards),
		FileBytes:    encB,
		RawFileBytes: rawB,
	}
	maxBefore := d.maximal
	var levelOut atomic.Int64
	lv := &Level{
		K:       k,
		Shards:  shards,
		target:  d.shardTarget(encB),
		collect: d.opts.Reporter != nil,
		wrote:   d.accountWrite(&levelOut, k+1),
		read:    &d.read,
	}
	var next []ShardMeta
	// Maximal counts accrue on release, so an aborted level counts only
	// the cliques actually delivered.
	lv.seq = sched.NewSequencer(len(shards), func(_ int, res *ShardResult) {
		d.maximal += res.Maximal
		if d.opts.Reporter != nil {
			start := int32(0)
			for _, end := range res.EmitOff {
				d.opts.Reporter.Emit(clique.Clique(res.EmitVerts[start:end]))
				start = end
			}
		}
		next = append(next, res.Out...)
	})
	err := d.exec.JoinLevel(d.opts.Ctx, lv)
	if err == nil {
		if cerr := d.opts.Ctx.Err(); cerr != nil {
			err = fmt.Errorf("ooc: canceled during level %d->%d: %w", k, k+1, cerr)
		} else if !lv.seq.Complete() {
			err = fmt.Errorf("ooc: level %d->%d: executor released %d of %d shards",
				k, k+1, lv.seq.Released(), len(shards))
		}
	}
	if err != nil {
		d.aborted = true
		// Discard the partial next level; the consumed level (and, when
		// checkpointing, the manifest naming it) stays for Resume.
		return nil, errors.Join(err, removeStaleShards(d.dir, shards))
	}
	d.releases = append(d.releases, lv.Releases...)
	lst.NextBytes, lst.RawNextBytes = LevelBytes(next)
	lst.Maximal = d.maximal - maxBefore
	if d.opts.OnLevel != nil {
		d.opts.OnLevel(lst)
	}
	d.shardsTotal += int64(len(next))
	return next, nil
}

func (d *driver) commit(shards []ShardMeta, k int) error {
	st := d.stats()
	st.Aborted = false
	// The first commit claims the directory (a fresh run writes into an
	// empty one; a Resume adopts the checkpoint it just validated); every
	// later commit must match the owner already on disk — a stale
	// process's late commit is rejected instead of silently accepted.
	if err := WriteManifest(d.dir, &Manifest{
		Owner:     d.owner,
		Compress:  d.opts.Compress,
		K:         k,
		MaxK:      d.opts.MaxK,
		Shards:    shards,
		Stats:     st,
		GraphN:    d.g.N(),
		GraphM:    d.g.M(),
		GraphHash: d.fp,
		Releases:  d.releases,
	}, !d.claimed); err != nil {
		return err
	}
	d.claimed = true
	return nil
}

// shardTarget sizes the next level's shards from the consumed level's
// encoded bytes (defaultShardTarget) unless Options.ShardBytes pins it.
func (d *driver) shardTarget(consumedBytes int64) int64 {
	if d.opts.ShardBytes > 0 {
		return d.opts.ShardBytes
	}
	return defaultShardTarget(consumedBytes, d.opts.Workers)
}

// spillLevel writes one level's sorted record stream — produced by feed
// in canonical order — through writeLevel, with the run's accounting.
// rawHint estimates the level's fixed-width bytes for shard sizing.
func (d *driver) spillLevel(k int, rawHint int64,
	feed func(write func(rec []uint32) error) error) ([]ShardMeta, error) {
	var levelOut atomic.Int64
	shards, err := writeLevel(d.dir, k, d.opts.Compress, d.shardTarget(rawHint), d.opts.Gov,
		func() string {
			d.spillSeq++
			return shardFileName(k, fmt.Sprintf("%06d", d.spillSeq))
		},
		d.accountWrite(&levelOut, k), feed)
	if err != nil {
		d.aborted = true
		return nil, err
	}
	d.shardsTotal += int64(len(shards))
	return shards, nil
}

// accountWrite builds the byte-accounting hook for one produced level:
// global I/O counters first (they must be truthful even if this very
// write aborts the level), then the per-level spill budget.
func (d *driver) accountWrite(levelOut *atomic.Int64, nextK int) func(enc, raw int64) error {
	budget := d.opts.MaxLevelBytes
	return func(enc, raw int64) error {
		d.written.Add(enc)
		d.rawWritten.Add(raw)
		if budget > 0 && levelOut.Add(enc) > budget {
			return fmt.Errorf("%w: level %d would pass %d bytes", ErrSpillBudget, nextK, budget)
		}
		return nil
	}
}

// shardFileName builds a shard file name for level k with a
// distinguishing tag: a sequence number for spilled levels, the input
// shard index and attempt for joined ones (see Joiner.Join), so a
// re-executed join can never collide with an earlier attempt's files.
func shardFileName(k int, tag string) string {
	return fmt.Sprintf("l%03d-%s%s", k, tag, shardSuffix)
}
