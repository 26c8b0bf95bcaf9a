package ooc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// This file is the join every executor runs: stream one shard's prefix
// runs, pairwise-test each run's tails against the prefix
// common-neighbor bitmap, spill survivors as (k+1)-candidates through a
// run-aligned levelWriter, and buffer the maximal dead ends for in-order
// emission.  The local pool (pool.go) and the distributed worker both
// call Joiner.Join, so the two joins cannot drift.

// Joiner owns the per-worker scratch of the shard join: the two dense
// common-neighbor bitmaps and the record buffers.  It is not safe for
// concurrent use; give each worker its own.
type Joiner struct {
	g          graph.Interface
	dense      *graph.Graph // non-nil when g is the dense backend (fused fast path)
	cn, cnNext *bitset.Bitset
	rec        []uint32
	prefix     []uint32
	tails      []uint32
	rec2       []uint32
	prefixInts []int
}

// NewJoiner returns a Joiner over g with freshly allocated scratch.
func NewJoiner(g graph.Interface) *Joiner {
	n := g.N()
	dense, _ := g.(*graph.Graph)
	return &Joiner{g: g, dense: dense, cn: bitset.New(n), cnNext: bitset.New(n)}
}

// ScratchBytes reports the joiner's resident bitmap footprint — what a
// coordinator reserves against its governor on the worker's behalf, so
// one budget authority still sees every process's scratch.
func (j *Joiner) ScratchBytes() int64 {
	return 2 * int64((j.g.N()+63)/64) * 8
}

// Join runs one shard task: it streams t.Shard — from data, a
// prefetched copy of the file, when non-nil, else from dir with its read
// buffer charged to gov — joins its prefix runs, and writes the
// (t.K+1)-candidates into dir through a fresh levelWriter whose files
// are named after the task's shard index and attempt.  onWrite (nil =
// none) observes the writer's bytes and may stop it.  On error the
// writer is aborted and its files are left for the driver's cleanup;
// the result still carries the bytes read.
func (j *Joiner) Join(ctx context.Context, dir string, compress bool, gov *membudget.Governor,
	t ShardTask, data []byte, onWrite func(enc, raw int64) error) (ShardResult, error) {
	if onWrite == nil {
		onWrite = func(int64, int64) error { return nil }
	}
	seq := 0
	out := newLevelWriter(dir, t.K+1, compress, t.Target, gov, func() string {
		seq++
		return shardFileName(t.K+1, fmt.Sprintf("s%05d-a%02d-%03d", t.Index, t.Attempt, seq))
	}, onWrite)
	var r *shardReader
	var err error
	if data != nil {
		r, err = openShardBytes(data, t.Shard, t.K, j.g.N(), compress)
	} else {
		r, err = openShard(dir, t.Shard, t.K, j.g.N(), compress, gov)
	}
	if err != nil {
		return ShardResult{}, err
	}
	res, err := j.joinFrom(ctx, r, t.K, out, t.Collect)
	if err != nil {
		return res, errors.Join(err, out.Abort())
	}
	res.Out, err = out.Finish()
	return res, err
}

// joinFrom streams the opened shard's prefix runs through joinRun,
// closing the reader on every path.
//
//repro:ctxloop
func (j *Joiner) joinFrom(ctx context.Context, r *shardReader, k int,
	out *levelWriter, collect bool) (res ShardResult, err error) {
	defer func() {
		res.BytesRead = r.BytesRead()
		if cerr := r.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()

	rec := growU32(&j.rec, k)
	prefix := growU32(&j.prefix, k-1)
	tails := j.tails[:0]
	defer func() { j.tails = tails[:0] }() // keep grown capacity for the next shard
	for i := int64(0); ; i++ {
		// Cancellation point: every 4096 records, so abort latency stays
		// bounded even when one shard holds millions of cliques.
		if i&4095 == 0 && ctx.Err() != nil {
			return res, fmt.Errorf("ooc: canceled during level %d->%d: %w", k, k+1, ctx.Err())
		}
		err := r.Next(rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if len(tails) > 0 && !equalPrefix(prefix, rec[:k-1]) {
			if err := j.joinRun(&res, out, k, prefix, tails, collect); err != nil {
				return res, err
			}
			tails = tails[:0]
		}
		copy(prefix, rec[:k-1])
		tails = append(tails, rec[k-1])
	}
	if len(tails) > 0 {
		if err := j.joinRun(&res, out, k, prefix, tails, collect); err != nil {
			return res, err
		}
	}
	return res, nil
}

// joinRun joins one prefix run: the current run's tails are pairwise
// tested; survivors spill as (k+1)-candidates, dead ends of size >= 3
// are maximal and buffered for in-order emission.  All scratch is
// joiner-owned — the hot loop allocates only when an emission arena
// grows.
func (j *Joiner) joinRun(res *ShardResult, out *levelWriter,
	k int, prefix, tails []uint32, collect bool) error {
	g := j.g
	pi := j.prefixInts[:0]
	for _, p := range prefix {
		pi = append(pi, int(p))
	}
	j.prefixInts = pi
	// CN of the shared prefix (k-1 ANDs over adjacency rows; for k=2 the
	// "prefix" is one vertex).
	graph.CommonNeighbors(g, j.cn, pi)
	rec2 := growU32(&j.rec2, k+1)
	copy(rec2, prefix)
	for i := 0; i < len(tails)-1; i++ {
		v := int(tails[i])
		if j.dense != nil {
			// Dense fast path: the join never retains CN(prefix+v) — it
			// only asks maximality — so the cnNext materialize is fused
			// away entirely and each probe runs three-way over
			// (prefix CN, N(v), N(u)) with first-witness early exit.
			nv := j.dense.Neighbors(v)
			rec2[k-1] = tails[i]
			for jj := i + 1; jj < len(tails); jj++ {
				u := int(tails[jj])
				if !nv.Test(u) {
					continue
				}
				if bitset.AndAny3(j.cn, nv, j.dense.Neighbors(u)) {
					rec2[k] = tails[jj]
					if err := out.Write(rec2); err != nil {
						return err
					}
				} else if k+1 >= 3 {
					res.Maximal++
					if collect {
						for _, p := range prefix {
							res.EmitVerts = append(res.EmitVerts, int(p))
						}
						res.EmitVerts = append(res.EmitVerts, v, u)
						res.EmitOff = append(res.EmitOff, int32(len(res.EmitVerts)))
					}
				}
			}
			continue
		}
		rv := g.Row(v)
		rv.AndInto(j.cnNext, j.cn)
		rec2[k-1] = tails[i]
		for jj := i + 1; jj < len(tails); jj++ {
			u := int(tails[jj])
			if !rv.Test(u) {
				continue
			}
			if g.Row(u).IntersectsWith(j.cnNext) {
				// Non-maximal: spill as a next-level candidate.
				rec2[k] = tails[jj]
				if err := out.Write(rec2); err != nil {
					return err
				}
			} else if k+1 >= 3 {
				res.Maximal++
				if collect {
					for _, p := range prefix {
						res.EmitVerts = append(res.EmitVerts, int(p))
					}
					res.EmitVerts = append(res.EmitVerts, v, u)
					res.EmitOff = append(res.EmitOff, int32(len(res.EmitVerts)))
				}
			}
		}
	}
	return nil
}

func growU32(buf *[]uint32, n int) []uint32 {
	if cap(*buf) < n {
		*buf = make([]uint32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// writeLevel writes one level's sorted record stream — produced by feed
// in canonical order, the run-aligned sharding invariant — into dir as
// shard files of roughly target encoded bytes.  nextName names each
// shard file; onWrite observes every encoded/raw byte increment (and
// may return an error to abort the level, e.g. a spill budget).  On a
// feed or write error every shard file created so far is removed and
// the error returned; on success the level's shard list is returned.
func writeLevel(dir string, k int, compress bool, target int64,
	gov *membudget.Governor, nextName func() string,
	onWrite func(enc, raw int64) error,
	feed func(write func(rec []uint32) error) error) ([]ShardMeta, error) {
	var created []string
	lw := newLevelWriter(dir, k, compress, target, gov,
		func() string {
			name := nextName()
			created = append(created, name)
			return name
		},
		onWrite)
	if werr := feed(lw.Write); werr != nil {
		errs := []error{werr, lw.Abort()}
		for _, name := range created {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				errs = append(errs, fmt.Errorf("ooc: remove aborted level spill: %w", err))
			}
		}
		return nil, errors.Join(errs...)
	}
	return lw.Finish()
}

// edgeFeed adapts a graph's canonical edge stream to writeLevel's feed
// contract: every edge (u < v) in sorted order, as a 2-record — the
// level-2 seed of the out-of-core loop.  ctx cancels between batches of
// 4096 edges.
func edgeFeed(ctx context.Context, g graph.Interface) func(write func(rec []uint32) error) error {
	return func(write func(rec []uint32) error) error {
		var rec [2]uint32
		var werr error
		cnt := 0
		graph.ForEachEdge(g, func(u, v int) bool {
			if cnt&4095 == 0 && ctx.Err() != nil {
				werr = fmt.Errorf("ooc: canceled during edge spill: %w", ctx.Err())
				return false
			}
			cnt++
			rec[0], rec[1] = uint32(u), uint32(v)
			werr = write(rec[:])
			return werr == nil
		})
		return werr
	}
}

// defaultShardTarget sizes a level's shards from the consumed level's
// encoded bytes: about eight shards per worker, so the dispatcher (or
// the distributed lease table) has slack to balance skewed shard costs,
// clamped so tiny levels are not pulverized and huge ones are not
// monolithic.
func defaultShardTarget(consumedBytes int64, workers int) int64 {
	t := consumedBytes / int64(8*max(workers, 1))
	const minTarget = 32 << 10
	const maxTarget = 32 << 20
	return min(max(t, minTarget), maxTarget)
}
