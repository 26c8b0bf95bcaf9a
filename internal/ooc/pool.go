package ooc

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/sched"
)

// pool is the in-process ShardExecutor: a persistent worker pool fed
// one-shard chunks by the contiguous dispatcher, each worker reading its
// next shard ahead while it joins the current one.  Started lazily by
// the first level, stopped by the entry point once the run is over.
type pool struct {
	g        graph.Interface
	dir      string
	compress bool
	gov      *membudget.Governor
	prefetch bool
	size     int

	workers       []*oocWorker
	wg            sync.WaitGroup
	scratchCharge int64 // governor charge for the workers' bitmaps
}

func newPool(g graph.Interface, opts Options, dir string) *pool {
	return &pool{g: g, dir: dir, compress: opts.Compress, gov: opts.Gov,
		prefetch: !opts.DisablePrefetch, size: opts.Workers}
}

// levelJob is one level's work order, broadcast to the pool.
type levelJob struct {
	lv     *Level
	disp   *sched.Dispatcher
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	firstErr error
}

// fail records the level's first error and cancels the level context so
// the other workers stop pulling work.  Later "canceled" errors from
// peers reacting to that cancel are discarded.
func (j *levelJob) fail(err error) {
	j.mu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.mu.Unlock()
	j.cancel()
}

// JoinLevel runs one level on the pool and returns once every worker
// has finished with it (and drained its read-ahead).
func (p *pool) JoinLevel(ctx context.Context, lv *Level) error {
	p.start()
	loads := make([]int64, len(lv.Shards))
	for i, s := range lv.Shards {
		loads[i] = s.Records
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	job := &levelJob{
		lv:     lv,
		disp:   sched.NewContiguousDispatcher(loads, p.size, 1),
		ctx:    lctx,
		cancel: cancel,
	}
	job.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.jobs <- job
	}
	job.wg.Wait()
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.firstErr
}

func (p *pool) start() {
	if p.workers != nil {
		return
	}
	p.workers = make([]*oocWorker, p.size)
	for i := range p.workers {
		w := &oocWorker{id: i, p: p, jobs: make(chan *levelJob, 1), join: NewJoiner(p.g)}
		p.workers[i] = w
		p.wg.Add(1)
		go w.loop()
	}
	// Per-worker bitmap scratch is resident for the whole run; the
	// governor hears about it like any other layer's footprint.
	p.scratchCharge = int64(p.size) * p.workers[0].join.ScratchBytes()
	p.gov.Charge(p.scratchCharge)
}

func (p *pool) stop() {
	for _, w := range p.workers {
		close(w.jobs)
	}
	p.wg.Wait()
	p.gov.Release(p.scratchCharge)
	p.scratchCharge = 0
}

// oocWorker is one persistent pool thread.  Its Joiner's bitmaps and
// record scratch live for the whole run, so the spill hot loop
// allocates nothing per record (pinned by TestJoinHotLoopAllocs).
type oocWorker struct {
	id   int
	p    *pool
	jobs chan *levelJob
	join *Joiner
}

func (w *oocWorker) loop() {
	defer w.p.wg.Done()
	for job := range w.jobs {
		w.runJob(job)
		job.wg.Done()
	}
}

// runJob drains the dispatcher with one shard of read-ahead: the worker
// flattens its leased chunks into a local queue and, before joining a
// shard, starts a background read of the next queued shard's file — the
// double buffer that overlaps the level's I/O with the CPU-bound join.
// The deposit order into the sequencer is unchanged (the queue preserves
// lease order and results still release in shard order), so the clique
// stream is byte-identical with read-ahead on or off.  Every exit path
// drains the in-flight read first: its goroutine and its governor-
// charged buffer must not outlive the level.
//
//repro:ctxloop
func (w *oocWorker) runJob(job *levelJob) {
	shards := job.lv.Shards
	gov := w.p.gov
	var queue []int
	var next *prefetched
	defer func() {
		if next != nil {
			next.await()
			gov.Release(shards[next.si].Bytes)
		}
	}()
	for {
		if job.ctx.Err() != nil {
			return
		}
		if len(queue) == 0 {
			chunk, ok := job.disp.Next(w.id)
			if !ok {
				return
			}
			queue = append(queue, chunk.Items...)
		}
		si := queue[0]
		queue = queue[1:]
		var data []byte
		if next != nil && next.si == si {
			d, err := next.await()
			next = nil
			if err != nil {
				gov.Release(shards[si].Bytes)
				if job.ctx.Err() != nil {
					return // level canceled; the driver reports it
				}
				job.fail(err)
				return
			}
			data = d
		}
		// Lease ahead so the successor's read overlaps this shard's
		// join; the dispatcher stays the single source of assignment.
		if len(queue) == 0 {
			if chunk, ok := job.disp.Next(w.id); ok {
				queue = append(queue, chunk.Items...)
			}
		}
		if w.p.prefetch && next == nil && len(queue) > 0 {
			next = w.startPrefetch(job, queue[0])
		}
		res, err := w.join.Join(job.ctx, w.p.dir, w.p.compress, gov, job.lv.Task(si, 1), data, job.lv.Wrote)
		job.lv.Read(res.BytesRead)
		if data != nil {
			gov.Release(shards[si].Bytes)
		}
		if err != nil {
			job.fail(err)
			return
		}
		job.lv.Deposit(si, &res)
	}
}

// prefetched is one shard's encoded file, read ahead of its join by a
// background goroutine.  await joins that goroutine; the shard's
// meta.Bytes stay charged to the governor from startPrefetch until the
// consumer (or the job's abandon path) releases them.
type prefetched struct {
	si   int
	data []byte
	err  error
	done chan struct{}
}

func (p *prefetched) await() ([]byte, error) {
	<-p.done
	return p.data, p.err
}

// startPrefetch charges the shard's encoded size to the governor and
// begins reading its file in the background.
func (w *oocWorker) startPrefetch(job *levelJob, si int) *prefetched {
	meta := job.lv.Shards[si]
	w.p.gov.Charge(meta.Bytes)
	p := &prefetched{si: si, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := job.ctx.Err(); err != nil {
			p.err = err
			return
		}
		data, err := os.ReadFile(filepath.Join(w.p.dir, meta.Path))
		if err == nil && int64(len(data)) != meta.Bytes {
			err = corrupt("%s: size %d, manifest expects %d", meta.Path, len(data), meta.Bytes)
		}
		p.data, p.err = data, err
	}()
	return p
}
