// Package microarray synthesizes gene-expression datasets and turns them
// into correlation graphs, reproducing the data pipeline of Zhang et al.
// (SC 2005): "graphs ... generated from raw microarray data after
// normalization, pairwise rank coefficient calculation, and filtering
// using threshold".
//
// The paper's inputs — Affymetrix U74Av2 mouse-brain data (12,422 probe
// sets) and a 2,895-gene myogenic-differentiation dataset — are not
// redistributable, so this package builds the closest synthetic
// equivalent: expression matrices with planted co-expression modules
// (groups of genes driven by shared latent factors) over a noisy
// background.  After rank-correlation and thresholding, each planted
// module becomes a clique, overlapping modules produce the dense clique
// neighborhoods that stress the enumerator, and background genes
// contribute the sparse noise edges.  See DESIGN.md §2 for the
// substitution argument.
package microarray

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Matrix is a genes x conditions expression matrix.
type Matrix struct {
	Genes      int
	Conditions int
	Data       [][]float64 // Data[g][c]
	Names      []string    // optional probe-set IDs, len Genes
}

// NewMatrix allocates a zero expression matrix.
func NewMatrix(genes, conditions int) *Matrix {
	if genes < 0 || conditions < 0 {
		panic("microarray: negative matrix dimension")
	}
	data := make([][]float64, genes)
	backing := make([]float64, genes*conditions)
	for g := range data {
		data[g], backing = backing[:conditions:conditions], backing[conditions:]
	}
	return &Matrix{Genes: genes, Conditions: conditions, Data: data}
}

// ModuleSpec describes one planted co-expression module.
type ModuleSpec struct {
	Genes   []int   // member gene indices
	Signal  float64 // latent factor loading; higher = tighter correlation
	Terse   bool    // if true, the module factor affects only half the conditions
	Inverse int     // number of members loaded with negative sign (anti-correlated)
}

// SyntheticConfig drives Synthesize.
type SyntheticConfig struct {
	Genes      int
	Conditions int
	Modules    []ModuleSpec
	Noise      float64 // per-gene independent noise sigma (default 1.0)
}

// Synthesize builds an expression matrix: every gene gets independent
// Gaussian noise; module members additionally follow their module's latent
// factor with loading Signal.  With Signal >> Noise, intra-module Spearman
// correlations approach 1 and survive any reasonable threshold.
func Synthesize(rng *rand.Rand, cfg SyntheticConfig) *Matrix {
	noise := cfg.Noise
	if noise == 0 {
		noise = 1.0
	}
	m := NewMatrix(cfg.Genes, cfg.Conditions)
	for g := 0; g < cfg.Genes; g++ {
		for c := 0; c < cfg.Conditions; c++ {
			m.Data[g][c] = rng.NormFloat64() * noise
		}
	}
	for mi, mod := range cfg.Modules {
		factor := make([]float64, cfg.Conditions)
		for c := range factor {
			factor[c] = rng.NormFloat64()
		}
		span := cfg.Conditions
		if mod.Terse {
			span = cfg.Conditions / 2
		}
		for gi, g := range mod.Genes {
			if g < 0 || g >= cfg.Genes {
				panic(fmt.Sprintf("microarray: module %d gene %d out of range", mi, g))
			}
			sign := 1.0
			if gi < mod.Inverse {
				sign = -1.0
			}
			for c := 0; c < span; c++ {
				m.Data[g][c] += sign * mod.Signal * factor[c]
			}
		}
	}
	return m
}

// Normalize z-normalizes every gene row in place (zero mean, unit
// variance), the standard first step before correlation analysis.
func (m *Matrix) Normalize() {
	for g := 0; g < m.Genes; g++ {
		copy(m.Data[g], stats.ZNormalize(m.Data[g]))
	}
}

// CorrelationMethod selects the pairwise coefficient.
type CorrelationMethod int

const (
	// SpearmanRank is the paper's "pairwise rank coefficient".
	SpearmanRank CorrelationMethod = iota
	// PearsonProduct is the plain product-moment alternative.
	PearsonProduct
)

// CorrelationGraph computes all pairwise coefficients and returns the
// dense graph with an edge wherever |r| >= threshold.  The per-gene work
// (ranking for SpearmanRank, centring, the sum of squares) is done once
// per gene, so the pair loop is one dot product per pair, run on every
// core.
func CorrelationGraph(m *Matrix, method CorrelationMethod, threshold float64) *graph.Graph {
	g, err := CorrelationGraphRep(m, method, threshold, graph.Dense)
	if err != nil {
		// Gene indices are generated in range; Dense freezing cannot fail.
		panic(err)
	}
	return g.(*graph.Graph)
}

// CorrelationGraphRep is CorrelationGraph with an explicit adjacency
// representation (graph.Auto selects from the thresholded density, so
// genome-scale sparse correlation graphs come back CSR without ever
// materializing the dense bitmap index).
func CorrelationGraphRep(m *Matrix, method CorrelationMethod, threshold float64, rep graph.Representation) (graph.Interface, error) {
	b := graph.NewBuilder(m.Genes).WithRepresentation(rep)
	if m.Names != nil {
		for i, name := range m.Names {
			if err := b.SetName(i, name); err != nil {
				return nil, err
			}
		}
	}

	type edge struct{ u, v int }
	workers := workerCount(m.Genes)
	found := make([][]edge, workers)
	prepare(m, method).pairRows(workers, func(w, u int, out []float64) {
		for j, r := range out {
			if r >= threshold || -r >= threshold {
				found[w] = append(found[w], edge{u, u + 1 + j})
			}
		}
	})
	for _, local := range found {
		for _, e := range local {
			if err := b.AddEdge(e.u, e.v); err != nil {
				return nil, err
			}
		}
	}
	return b.Freeze()
}

// ThresholdForEdgeCount returns the smallest |r| threshold that keeps at
// most maxEdges edges: the next float64 above the (maxEdges+1)-th largest
// |r|, so every pair tied with that coefficient is cut and the graph
// holds exactly the pairs strictly above it.  The paper picks thresholds
// that yield target densities (0.008%, 0.2%, 0.3%); this utility
// automates that.  A budget of every pair or more returns 0; a budget of
// zero or less returns 1.1, above any attainable |r|.
//
// Each worker keeps only the maxEdges+1 largest |r| it has seen, so
// memory is O(genes·conditions + workers·maxEdges), not one slot per
// pair.
func ThresholdForEdgeCount(m *Matrix, method CorrelationMethod, maxEdges int) float64 {
	if maxEdges >= m.Genes*(m.Genes-1)/2 {
		return 0
	}
	if maxEdges <= 0 {
		return 1.1
	}
	workers := workerCount(m.Genes)
	tops := make([]topK, workers)
	for w := range tops {
		tops[w].k = maxEdges + 1
	}
	prepare(m, method).pairRows(workers, func(w, _ int, out []float64) {
		top := &tops[w]
		for _, r := range out {
			top.offer(math.Abs(r))
		}
	})
	top := tops[0]
	for _, t := range tops[1:] {
		for _, a := range t.vals {
			top.offer(a)
		}
	}
	// More pairs than maxEdges exist, so top holds maxEdges+1 values and
	// its minimum is the (maxEdges+1)-th largest |r|.
	return math.Nextafter(top.vals[0], math.Inf(1))
}

// workerCount is the pair-loop worker count for n genes: GOMAXPROCS,
// capped at n, at least 1.
func workerCount(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// strided runs body(w) for w in [0, workers) on one goroutine each and
// returns once all have finished.  Its callers give worker w the gene
// rows w, w+workers, w+2·workers, ...: striding balances the triangular
// pair loop, whose row u holds n-u-1 pairs.
func strided(workers int, body func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	wg.Wait()
}

// centred is the per-gene preparation both correlation passes share:
// each gene's row (ranked, for SpearmanRank) minus its mean, and the
// row's sum of squares.  Row g lives at d[g*c : (g+1)*c].
type centred struct {
	n, c int
	d    []float64
	ss   []float64
}

// prepare centres every gene row exactly as stats.Pearson does inside
// its pair loop — the mean is stats.Mean, each entry is x - mean, and
// Σ d² sums in row order — so the kernel's coefficients match Pearson's
// bit for bit.
func prepare(m *Matrix, method CorrelationMethod) *centred {
	n, c := m.Genes, m.Conditions
	p := &centred{n: n, c: c, d: make([]float64, n*c), ss: make([]float64, n)}
	workers := workerCount(n)
	strided(workers, func(w int) {
		for g := w; g < n; g += workers {
			row := m.Data[g]
			if method == SpearmanRank {
				row = stats.Ranks(row)
			}
			mean := stats.Mean(row)
			d := p.d[g*c : (g+1)*c]
			var ss float64
			for i, x := range row {
				dx := x - mean
				d[i] = dx
				ss += dx * dx
			}
			p.ss[g] = ss
		}
	})
	return p
}

// pairRows runs the pair loop on workers goroutines and returns once it
// is done: worker w computes the rows u = w, w+workers, ... and calls
// visit(w, u, out) with out[j] = r(u, u+1+j).  out is the worker's own
// buffer, overwritten by its next row, so visit may touch only state
// indexed by w.
func (p *centred) pairRows(workers int, visit func(w, u int, out []float64)) {
	strided(workers, func(w int) {
		row := make([]float64, p.n)
		for u := w; u < p.n; u += workers {
			out := row[:p.n-u-1]
			p.corrRow(u, out)
			visit(w, u, out)
		}
	})
}

// corrRow writes r(u, v) for every v > u into out[v-u-1]; out holds
// n-u-1 values.  Each r is bit-identical to stats.Pearson of rows u and
// v (of their ranks, for SpearmanRank): the cross product sums in
// condition order and the quotient has Pearson's shape.  Four partner rows share each pass over
// row u, each with its own accumulator, which overlaps the four sums
// without reordering any of them.
//
//repro:hotpath
func (p *centred) corrRow(u int, out []float64) {
	c := p.c
	cu := p.d[u*c : (u+1)*c]
	su := p.ss[u]
	v := u + 1
	for ; v+4 <= p.n; v += 4 {
		r0 := p.d[v*c:][:len(cu)]
		r1 := p.d[(v+1)*c:][:len(cu)]
		r2 := p.d[(v+2)*c:][:len(cu)]
		r3 := p.d[(v+3)*c:][:len(cu)]
		var s0, s1, s2, s3 float64
		for i, x := range cu {
			s0 += x * r0[i]
			s1 += x * r1[i]
			s2 += x * r2[i]
			s3 += x * r3[i]
		}
		o := out[v-u-1 : v-u+3]
		o[0] = coef(s0, su, p.ss[v])
		o[1] = coef(s1, su, p.ss[v+1])
		o[2] = coef(s2, su, p.ss[v+2])
		o[3] = coef(s3, su, p.ss[v+3])
	}
	for ; v < p.n; v++ {
		rv := p.d[v*c:][:len(cu)]
		var s float64
		for i, x := range cu {
			s += x * rv[i]
		}
		out[v-u-1] = coef(s, su, p.ss[v])
	}
}

// coef is stats.Pearson's last step: sxy / √(sxx·syy), or 0 when either
// row has zero variance.
func coef(sxy, sxx, syy float64) float64 {
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// topK keeps the k largest values offered to it in a min-heap: vals[0]
// is the smallest value kept, so once the heap is full most offers are
// rejected by one comparison.
type topK struct {
	k    int
	vals []float64
}

// offer is the per-pair fast path, kept small enough to inline into the
// pair loop; insert does the heap work.
func (t *topK) offer(a float64) {
	if len(t.vals) == t.k && a <= t.vals[0] {
		return
	}
	t.insert(a)
}

// insert adds a to the heap, evicting the minimum once k values are held.
//
//repro:hotpath
func (t *topK) insert(a float64) {
	if len(t.vals) < t.k {
		t.vals = append(t.vals, a)
		h := t.vals
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if h[parent] <= h[i] {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return
	}
	h := t.vals
	h[0] = a
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
