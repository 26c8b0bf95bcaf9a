package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Conn is one worker's framed, bidirectional message stream.  Send and
// Recv are each called from a single goroutine (the coordinator's
// dispatcher sends; a per-worker pump receives); implementations need
// not serialize beyond that.
type Conn interface {
	Send(*Msg) error
	Recv() (*Msg, error)
	Close() error
}

// Transport starts workers and wires them to the coordinator.  The
// coordinator is transport-agnostic: exec/pipe today, TCP tomorrow,
// in-process loopback in the tests — none of them change a line of
// coordinator code.
type Transport interface {
	// Dial starts (or connects to) worker slot i and returns its
	// connection.  Slots are dialed again after a worker dies; each
	// Dial is a fresh worker process/goroutine.
	Dial(ctx context.Context, i int) (Conn, error)
	// Kill forcibly terminates the most recent worker on slot i — the
	// revocation behind lease expiry.  Best effort; killing an
	// already-dead worker is not an error.
	Kill(i int) error
}

// LoopbackTransport runs each worker as an in-process goroutine over
// io.Pipe pairs — no exec, no sandbox, and the race detector sees both
// sides.  Used by unit tests; Kill cancels the worker's context and
// closes its pipes, which the worker experiences as a fatal transport
// error (the closest loopback analogue of SIGKILL).  Closing the
// coordinator's end does the same and then waits for the worker
// goroutine to exit, the way closing an exec connection reaps the child.
type LoopbackTransport struct {
	// Serve runs the worker side over conn; defaults to ServeWorker.
	Serve func(ctx context.Context, conn Conn) error

	mu    sync.Mutex
	kills map[int]func()
}

func (t *LoopbackTransport) Dial(ctx context.Context, i int) (Conn, error) {
	serve := t.Serve
	if serve == nil {
		serve = ServeWorker
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	c2w := newPipe() // coordinator → worker
	w2c := newPipe() // worker → coordinator
	workerConn := NewPipeConn(c2w.r, w2c.w, func() error {
		return errors.Join(c2w.r.Close(), w2c.w.Close())
	})
	coordConn := NewPipeConn(w2c.r, c2w.w, func() error {
		err := errors.Join(c2w.w.Close(), w2c.r.Close())
		cancel()
		<-done
		return err
	})
	go func() {
		defer close(done)
		// A worker error surfaces to the coordinator as a broken pipe
		// (plus the error frame ServeWorker sends when it still can).
		_ = serve(wctx, workerConn)
		_ = workerConn.Close() //nolint:cleanuperr in-process pipe halves cannot fail to close
	}()
	t.mu.Lock()
	if t.kills == nil {
		t.kills = make(map[int]func())
	}
	t.kills[i] = func() {
		cancel()
		c2w.r.CloseWithError(io.ErrClosedPipe)
		w2c.w.CloseWithError(io.ErrClosedPipe)
	}
	t.mu.Unlock()
	return coordConn, nil
}

func (t *LoopbackTransport) Kill(i int) error {
	t.mu.Lock()
	kill := t.kills[i]
	t.mu.Unlock()
	if kill == nil {
		return fmt.Errorf("dist: loopback kill: no worker on slot %d", i)
	}
	kill()
	return nil
}

type pipePair struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func newPipe() pipePair {
	r, w := io.Pipe()
	return pipePair{r, w}
}
