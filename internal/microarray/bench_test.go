package microarray

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// The benchmarks run the correlation front end at the coexpr size: 2400
// genes × 60 conditions, Spearman, thresholded to the paper's graph-C
// density of 0.2%.
const (
	benchGenes      = 2400
	benchConditions = 60
	benchDensity    = 0.002
)

func benchMatrix() (*Matrix, int) {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(benchGenes)
	var mods []ModuleSpec
	for i := 0; i < 40; i++ {
		size := 18 - i%5
		mods = append(mods, ModuleSpec{Genes: perm[:size], Signal: 3 + rng.Float64()*2, Terse: i%7 == 3})
		perm = perm[size:]
	}
	m := Synthesize(rng, SyntheticConfig{Genes: benchGenes, Conditions: benchConditions, Modules: mods})
	m.Normalize()
	pairs := benchGenes * (benchGenes - 1) / 2
	return m, int(benchDensity * float64(pairs))
}

var benchSink float64

func BenchmarkCorrelationThreshold(b *testing.B) {
	m, maxEdges := benchMatrix()
	b.ReportAllocs()
	for b.Loop() {
		benchSink = ThresholdForEdgeCount(m, SpearmanRank, maxEdges)
	}
}

func BenchmarkCorrelationGraph(b *testing.B) {
	m, maxEdges := benchMatrix()
	th := ThresholdForEdgeCount(m, SpearmanRank, maxEdges)
	b.ReportAllocs()
	for b.Loop() {
		g, err := CorrelationGraphRep(m, SpearmanRank, th, graph.Auto)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = float64(g.M())
	}
}
