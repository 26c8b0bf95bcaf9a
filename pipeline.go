package repro

import (
	"io"
	"math/rand"

	"repro/internal/microarray"
)

// The microarray front end, promoted to the facade: expression matrix in,
// thresholded relationship graph out, composing with Enumerator for the
// paper's primary application — "cliques of genes whose expression levels
// are highly correlated across conditions".
//
//	mat, _ := repro.ReadExpressionTSV(f)
//	mat.Normalize()
//	g := repro.CorrelationGraph(mat, repro.SpearmanRank, 0.85)
//	enum := repro.NewEnumerator(repro.WithBounds(5, 0), repro.WithWorkers(8))
//	for c, err := range enum.Cliques(ctx, g) { ... }

// ExpressionMatrix is a genes x conditions expression matrix with
// optional probe names.
type ExpressionMatrix = microarray.Matrix

// ModuleSpec plants one co-expression module in a synthetic matrix.
type ModuleSpec = microarray.ModuleSpec

// SyntheticConfig configures SynthesizeExpression.
type SyntheticConfig = microarray.SyntheticConfig

// CorrelationMethod selects the pairwise coefficient.
type CorrelationMethod = microarray.CorrelationMethod

const (
	// SpearmanRank is the paper's "pairwise rank coefficient".
	SpearmanRank = microarray.SpearmanRank
	// PearsonProduct is the plain product-moment alternative.
	PearsonProduct = microarray.PearsonProduct
)

// NewExpressionMatrix returns a zeroed genes x conditions matrix.
func NewExpressionMatrix(genes, conditions int) *ExpressionMatrix {
	return microarray.NewMatrix(genes, conditions)
}

// SynthesizeExpression generates a synthetic expression matrix with
// planted co-expression modules — the stand-in for array data in the
// examples and tests.
func SynthesizeExpression(rng *rand.Rand, cfg SyntheticConfig) *ExpressionMatrix {
	return microarray.Synthesize(rng, cfg)
}

// ReadExpressionTSV parses a tab-separated expression matrix (one row
// per gene, first column the probe name).
func ReadExpressionTSV(r io.Reader) (*ExpressionMatrix, error) {
	return microarray.ReadTSV(r)
}

// WriteExpressionTSV writes m in the same TSV format.
func WriteExpressionTSV(w io.Writer, m *ExpressionMatrix) error {
	return microarray.WriteTSV(w, m)
}

// CorrelationGraph thresholds the pairwise correlation matrix of m into
// a dense relationship graph: vertices are genes, an edge joins two
// genes with |coefficient| >= threshold.
func CorrelationGraph(m *ExpressionMatrix, method CorrelationMethod, threshold float64) *Graph {
	return microarray.CorrelationGraph(m, method, threshold)
}

// CorrelationGraphRep is CorrelationGraph with an explicit adjacency
// representation.  Auto picks Dense or CSR from the thresholded density,
// so a genome-scale sparse coexpression graph comes back CSR — O(n+m)
// bytes — without the dense bitmap index ever being materialized.
func CorrelationGraphRep(m *ExpressionMatrix, method CorrelationMethod, threshold float64, rep Representation) (GraphInterface, error) {
	return microarray.CorrelationGraphRep(m, method, threshold, rep)
}

// CorrelationThreshold returns the smallest threshold producing at most
// maxEdges edges — how the paper picks thresholds targeting a graph
// density.  It is the next float64 above the (maxEdges+1)-th largest
// |r|, so pairs tied at the cut are all left out.
func CorrelationThreshold(m *ExpressionMatrix, method CorrelationMethod, maxEdges int) float64 {
	return microarray.ThresholdForEdgeCount(m, method, maxEdges)
}
