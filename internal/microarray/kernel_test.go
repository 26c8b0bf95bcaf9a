package microarray

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// The oracle is the straightforward front end the kernel replaced: every
// pair through stats.Pearson (of ranks, for Spearman), one thread, and a
// threshold read off the sorted list of every |r|.

func oracleCoef(m *Matrix, method CorrelationMethod, u, v int) float64 {
	if method == SpearmanRank {
		return stats.Spearman(m.Data[u], m.Data[v])
	}
	return stats.Pearson(m.Data[u], m.Data[v])
}

func oracleEdges(m *Matrix, method CorrelationMethod, threshold float64) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < m.Genes; u++ {
		for v := u + 1; v < m.Genes; v++ {
			if r := oracleCoef(m, method, u, v); r >= threshold || -r >= threshold {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// oracleAbs returns every |r|, largest first.
func oracleAbs(m *Matrix, method CorrelationMethod) []float64 {
	var all []float64
	for u := 0; u < m.Genes; u++ {
		for v := u + 1; v < m.Genes; v++ {
			all = append(all, math.Abs(oracleCoef(m, method, u, v)))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	return all
}

// interpolatedThreshold is the threshold rule the exact one replaced:
// linear interpolation between order statistics, which lands on a tied
// coefficient and then admits more than maxEdges edges.
func interpolatedThreshold(all []float64, maxEdges int) float64 {
	return stats.Quantile(all, 1-float64(maxEdges)/float64(len(all)))
}

// kernelMatrices covers the kernel's edge cases: gene counts on and off
// the 4-row block width, 1–3 conditions, zero-variance rows, and
// tie-heavy integer data.
func kernelMatrices() map[string]*Matrix {
	rng := rand.New(rand.NewSource(31))
	out := map[string]*Matrix{}
	for _, genes := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13} {
		for _, conds := range []int{1, 2, 3, 7} {
			m := NewMatrix(genes, conds)
			for g := range m.Data {
				for c := range m.Data[g] {
					m.Data[g][c] = rng.NormFloat64()
				}
			}
			out[matrixName("gauss", genes, conds)] = m
		}
	}
	for _, genes := range []int{6, 11, 22} {
		for _, conds := range []int{3, 5, 9} {
			m := NewMatrix(genes, conds)
			for g := range m.Data {
				for c := range m.Data[g] {
					m.Data[g][c] = float64(rng.Intn(3))
				}
			}
			// Row 0 has zero variance; row 1 repeats row 2.
			for c := range m.Data[0] {
				m.Data[0][c] = 1
			}
			copy(m.Data[1], m.Data[2])
			out[matrixName("ties", genes, conds)] = m
		}
	}
	module := Synthesize(rng, SyntheticConfig{
		Genes: 41, Conditions: 30,
		Modules: []ModuleSpec{{Genes: []int{3, 9, 17, 30}, Signal: 5, Inverse: 1}},
	})
	module.Normalize()
	out["module-41x30"] = module
	return out
}

func matrixName(kind string, genes, conds int) string {
	return fmt.Sprintf("%s-%dx%d", kind, genes, conds)
}

var methods = map[string]CorrelationMethod{"spearman": SpearmanRank, "pearson": PearsonProduct}

func TestCorrRowMatchesPearsonBitForBit(t *testing.T) {
	for name, m := range kernelMatrices() {
		for mname, method := range methods {
			p := prepare(m, method)
			out := make([]float64, m.Genes)
			for u := 0; u < m.Genes; u++ {
				row := out[:m.Genes-u-1]
				p.corrRow(u, row)
				for j, got := range row {
					v := u + 1 + j
					if want := oracleCoef(m, method, u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s r(%d,%d) = %v, oracle %v", name, mname, u, v, got, want)
					}
				}
			}
		}
	}
}

func TestCorrelationGraphRepMatchesOracle(t *testing.T) {
	for name, m := range kernelMatrices() {
		for mname, method := range methods {
			all := oracleAbs(m, method)
			// Thresholds on a coefficient exactly, between coefficients,
			// and at the extremes.
			ths := []float64{0, 0.3, 0.5, 1, 1.1}
			for i := 0; i < len(all); i += 1 + len(all)/5 {
				ths = append(ths, all[i])
			}
			for _, th := range ths {
				want := oracleEdges(m, method, th)
				for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
					g, err := CorrelationGraphRep(m, method, th, rep)
					if err != nil {
						t.Fatal(err)
					}
					if got := graph.Edges(g); !sameEdges(got, want) {
						t.Fatalf("%s/%s rep %v threshold %v: %d edges, oracle %d",
							name, mname, rep, th, len(got), len(want))
					}
				}
			}
		}
	}
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestThresholdExactOnTies pins the threshold definition on tie-heavy
// data: the graph at the threshold keeps at most maxEdges edges, and the
// next lower distinct coefficient would keep more.
func TestThresholdExactOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		genes, conds := 10+rng.Intn(30), 4+rng.Intn(8)
		m := NewMatrix(genes, conds)
		for g := range m.Data {
			for c := range m.Data[g] {
				m.Data[g][c] = float64(rng.Intn(4))
			}
		}
		pairs := genes * (genes - 1) / 2
		for mname, method := range methods {
			all := oracleAbs(m, method)
			for _, maxEdges := range []int{1, 2, 3, 5, 8, 13, pairs / 4, pairs / 2, pairs - 1} {
				th := ThresholdForEdgeCount(m, method, maxEdges)
				if want := math.Nextafter(all[maxEdges], math.Inf(1)); th != want {
					t.Fatalf("trial %d %s maxEdges %d: threshold %v, want %v", trial, mname, maxEdges, th, want)
				}
				edges := CorrelationGraph(m, method, th).M()
				if edges > maxEdges {
					t.Fatalf("trial %d %s maxEdges %d: %d edges at %v", trial, mname, maxEdges, edges, th)
				}
				// all[maxEdges] is the next lower distinct coefficient.
				if lower := CorrelationGraph(m, method, all[maxEdges]).M(); lower <= maxEdges {
					t.Fatalf("trial %d %s maxEdges %d: threshold %v not tight, %d edges at %v",
						trial, mname, maxEdges, th, lower, all[maxEdges])
				}
				// Against the interpolated rule: a subset, and the same set
				// wherever the interpolated rule kept its budget.
				old := oracleEdges(m, method, interpolatedThreshold(all, maxEdges))
				got := oracleEdges(m, method, th)
				if !subset(got, old) {
					t.Fatalf("trial %d %s maxEdges %d: edge set not within the interpolated rule's", trial, mname, maxEdges)
				}
				if len(old) <= maxEdges && !sameEdges(got, old) {
					t.Fatalf("trial %d %s maxEdges %d: edge set differs where the interpolated rule met the budget", trial, mname, maxEdges)
				}
			}
			if th := ThresholdForEdgeCount(m, method, pairs); th != 0 {
				t.Errorf("every pair allowed: threshold %v, want 0", th)
			}
			if th := ThresholdForEdgeCount(m, method, -1); th != 1.1 {
				t.Errorf("negative budget: threshold %v, want 1.1", th)
			}
		}
	}
}

func subset(a, b []graph.Edge) bool {
	in := make(map[graph.Edge]bool, len(b))
	for _, e := range b {
		in[e] = true
	}
	for _, e := range a {
		if !in[e] {
			return false
		}
	}
	return true
}

// TestThresholdIndependentOfWorkers runs the threshold and the graph on
// 1 and 4 workers: the per-worker heaps and edge lists merge to the same
// answer whatever the split.
func TestThresholdIndependentOfWorkers(t *testing.T) {
	m := kernelMatrices()["module-41x30"]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ths []float64
	var edges [][]graph.Edge
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		th := ThresholdForEdgeCount(m, SpearmanRank, 30)
		ths = append(ths, th)
		edges = append(edges, graph.Edges(CorrelationGraph(m, SpearmanRank, th)))
	}
	if ths[0] != ths[1] || !reflect.DeepEqual(edges[0], edges[1]) {
		t.Fatalf("1 worker: %v (%d edges); 4 workers: %v (%d edges)", ths[0], len(edges[0]), ths[1], len(edges[1]))
	}
}

func TestCorrRowAllocatesNothing(t *testing.T) {
	m := kernelMatrices()["module-41x30"]
	p := prepare(m, SpearmanRank)
	out := make([]float64, m.Genes)
	if allocs := testing.AllocsPerRun(20, func() { p.corrRow(1, out[:m.Genes-2]) }); allocs != 0 {
		t.Fatalf("corrRow allocates %v times per row", allocs)
	}
}
