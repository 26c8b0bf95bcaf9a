package repro_test

import (
	"context"
	"os"
	"testing"

	"repro"
	"repro/internal/dist"
)

// TestMain lets this test binary serve as an exec/pipe worker for the
// distributed facade tests: the coordinator's default transport
// re-executes the running binary, and the environment marker routes the
// child into the worker loop before any test runs.
func TestMain(m *testing.M) {
	if dist.WorkerEnabled() {
		dist.WorkerMain()
	}
	os.Exit(m.Run())
}

// TestDistributedFacadeParity: WithDistributed plugs into the one
// Enumerator API and its stream matches the sequential backend exactly,
// lower-bound filtering included, with the run visible in Stats.
func TestDistributedFacadeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(3, 60, 0.15)
	for _, lo := range []int{3, 5} {
		want := stream(t, repro.NewEnumerator(repro.WithBounds(lo, 0)), g)
		if len(want) == 0 {
			t.Fatalf("lo=%d: no cliques from the reference backend", lo)
		}
		var st repro.Stats
		e := repro.NewEnumerator(
			repro.WithBounds(lo, 0),
			repro.WithDistributed(2, t.TempDir(), repro.DistShardBytes(512)),
			repro.WithStats(&st),
		)
		got := stream(t, e, g)
		if len(got) != len(want) {
			t.Fatalf("lo=%d: distributed delivered %d cliques, want %d", lo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lo=%d: stream diverges at %d: got {%s}, want {%s}", lo, i, got[i], want[i])
			}
		}
		if st.Backend != "distributed" {
			t.Errorf("Stats.Backend = %q, want distributed", st.Backend)
		}
		if st.MaximalCliques != int64(len(want)) {
			t.Errorf("Stats.MaximalCliques = %d, want %d", st.MaximalCliques, len(want))
		}
		if st.DistWorkers != 2 {
			t.Errorf("Stats.DistWorkers = %d, want 2", st.DistWorkers)
		}
		if st.DistWorkerDeaths != 0 || st.DistReleases != 0 {
			t.Errorf("fault-free run reported deaths=%d releases=%d",
				st.DistWorkerDeaths, st.DistReleases)
		}
		if st.SpillBytesWritten == 0 || st.SpillBytesRead == 0 {
			t.Errorf("spill I/O not accounted: written=%d read=%d",
				st.SpillBytesWritten, st.SpillBytesRead)
		}
		// The per-level ledger must sum to the delivered count, like
		// every other backend.
		var sum int64
		for _, ls := range st.Levels {
			sum += ls.Maximal
		}
		if sum != st.MaximalCliques {
			t.Errorf("sum(Levels[].Maximal) = %d, want %d", sum, st.MaximalCliques)
		}
	}
}

// TestDistributedFacadeSpillStats: the distributed and out-of-core
// backends run one level driver, so with the same worker count (and
// hence the same shard layout) they report the same spill counters —
// the peak level file included, which distributed runs once left zero.
func TestDistributedFacadeSpillStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(5, 90, 0.2)
	var ost, dst repro.Stats
	want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0),
		repro.WithOutOfCore(t.TempDir(), 0, repro.OOCWorkers(2)), repro.WithStats(&ost)), g)
	got := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0),
		repro.WithDistributed(2, t.TempDir()), repro.WithStats(&dst)), g)
	if len(got) != len(want) {
		t.Fatalf("distributed delivered %d cliques, out-of-core %d", len(got), len(want))
	}
	if dst.PeakLevelFileBytes == 0 {
		t.Error("distributed run reports no peak level file")
	}
	if dst.PeakLevelFileBytes != ost.PeakLevelFileBytes ||
		dst.SpillBytesWritten != ost.SpillBytesWritten ||
		dst.SpillRawBytesWritten != ost.SpillRawBytesWritten ||
		dst.SpillBytesRead != ost.SpillBytesRead {
		t.Errorf("spill stats differ:\ndistributed peak=%d written=%d raw=%d read=%d\nout-of-core peak=%d written=%d raw=%d read=%d",
			dst.PeakLevelFileBytes, dst.SpillBytesWritten, dst.SpillRawBytesWritten, dst.SpillBytesRead,
			ost.PeakLevelFileBytes, ost.SpillBytesWritten, ost.SpillRawBytesWritten, ost.SpillBytesRead)
	}
}

// TestDistributedFacadeConfigErrors: the validation matrix reaches the
// facade — incompatible option combinations are run-time errors, not
// silent misconfiguration.
func TestDistributedFacadeConfigErrors(t *testing.T) {
	g := testGraph(3, 30, 0.1)
	for _, c := range []struct {
		name string
		opts []repro.Option
	}{
		{"with in-process workers", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithWorkers(4)}},
		{"with memory budget", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithMemoryBudget(1 << 20)}},
		{"with resume", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithResume(t.TempDir())}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := repro.NewEnumerator(c.opts...).Run(context.Background(), g, nil); err == nil {
				t.Fatal("incompatible distributed config accepted")
			}
		})
	}
}
