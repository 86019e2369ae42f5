// Package linalg provides the small spectral toolkit needed for the
// paper's scree plots (leading singular values of the adjacency matrix)
// and network-value plots (components of the principal eigenvector):
// a sparse symmetric matvec over the CSR graph, Lanczos iteration with
// full reorthogonalization for the extremal eigenvalues, power iteration
// for the principal eigenpair, and a dense Jacobi eigensolver that
// serves as the test oracle.
//
// For a symmetric matrix the singular values are the absolute values of
// the eigenvalues, which is how the scree series is produced.
package linalg

import (
	"context"
	"math"
	"sort"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// MatVec is a symmetric linear operator y = A·x of dimension Dim.
type MatVec interface {
	Dim() int
	Apply(dst, src []float64)
}

// AdjacencyOp wraps a graph's adjacency matrix as a MatVec.
type AdjacencyOp struct{ G *graph.Graph }

// Dim returns the number of nodes.
func (a AdjacencyOp) Dim() int { return a.G.NumNodes() }

// Apply computes dst = A·src where A is the 0/1 adjacency matrix.
func (a AdjacencyOp) Apply(dst, src []float64) {
	n := a.G.NumNodes()
	for v := 0; v < n; v++ {
		var sum float64
		for _, w := range a.G.Neighbors(v) {
			sum += src[w]
		}
		dst[v] = sum
	}
}

// DenseOp is a dense symmetric matrix operator, used in tests and for
// small systems such as Kronecker initiators.
type DenseOp struct{ M [][]float64 }

// Dim returns the matrix dimension.
func (d DenseOp) Dim() int { return len(d.M) }

// Apply computes dst = M·src.
func (d DenseOp) Apply(dst, src []float64) {
	for i, row := range d.M {
		var sum float64
		for j, a := range row {
			sum += a * src[j]
		}
		dst[i] = sum
	}
}

// TopEigenCtx computes approximations to the k eigenvalues of largest
// magnitude of the symmetric operator op, sorted by |λ| descending,
// using Lanczos with full reorthogonalization and a random start vector.
// iters controls the Krylov dimension (0 means max(3k+16, 48), capped at
// Dim). The companion Ritz vectors are not returned; use
// PowerIterationCtx for the principal eigenvector. Cancellation is
// checked once per Lanczos step (a nil context cannot be cancelled);
// the start vector is drawn before any step, so a completed run always
// consumes the same rng draws.
func TopEigenCtx(ctx context.Context, op MatVec, k, iters int, rng *randx.Rand) ([]float64, error) {
	n := op.Dim()
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	m := iters
	if m <= 0 {
		m = 3*k + 16
		if m < 48 {
			m = 48
		}
	}
	if m > n {
		m = n
	}
	alpha, beta, _, err := lanczos(ctx, op, m, rng)
	if err != nil {
		return nil, err
	}
	ritz := tridiagEigenvalues(alpha, beta)
	sort.Slice(ritz, func(i, j int) bool { return math.Abs(ritz[i]) > math.Abs(ritz[j]) })
	if len(ritz) > k {
		ritz = ritz[:k]
	}
	return ritz, nil
}

// lanczos runs m steps with full reorthogonalization, returning the
// tridiagonal coefficients and the Lanczos basis. It stops early on
// breakdown (invariant subspace found) and checks ctx (when non-nil)
// before each step.
func lanczos(ctx context.Context, op MatVec, m int, rng *randx.Rand) (alpha, beta []float64, basis [][]float64, err error) {
	n := op.Dim()
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	normalize(v)
	w := make([]float64, n)
	basis = append(basis, append([]float64(nil), v...))
	for j := 0; j < m; j++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
		}
		op.Apply(w, basis[j])
		a := dot(w, basis[j])
		alpha = append(alpha, a)
		// w -= a*v_j + b_{j-1}*v_{j-1}
		axpy(w, basis[j], -a)
		if j > 0 {
			axpy(w, basis[j-1], -beta[j-1])
		}
		// Full reorthogonalization (twice for stability).
		for pass := 0; pass < 2; pass++ {
			for _, q := range basis {
				axpy(w, q, -dot(w, q))
			}
		}
		b := math.Sqrt(dot(w, w))
		if b < 1e-12 || j == m-1 {
			return alpha, beta, basis, nil
		}
		beta = append(beta, b)
		next := make([]float64, n)
		for i := range next {
			next[i] = w[i] / b
		}
		basis = append(basis, next)
	}
	return alpha, beta, basis, nil
}

// tridiagEigenvalues computes all eigenvalues of the symmetric
// tridiagonal matrix with diagonal alpha and off-diagonal beta using the
// implicit QL algorithm (EISPACK tql1).
func tridiagEigenvalues(alpha, beta []float64) []float64 {
	n := len(alpha)
	d := append([]float64(nil), alpha...)
	e := make([]float64, n)
	copy(e, beta)
	for l := 0; l < n; l++ {
		for iter := 0; iter < 80; iter++ {
			// Find a small off-diagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return d
}

// PowerIterationCtx computes the algebraically largest eigenpair of op
// by power iteration on the shifted operator op + shift·I. A shift of at
// least a Gershgorin bound on |λmin| (for adjacency matrices, the
// maximum degree) guarantees convergence even on bipartite graphs,
// where λmax and λmin have equal magnitude and unshifted iteration
// oscillates. It returns the eigenvalue of op (shift removed) and the
// unit eigenvector. tol defaults to 1e-10 when 0; maxIter to 1000.
// Cancellation is checked once per iteration; a nil context cannot be
// cancelled.
func PowerIterationCtx(ctx context.Context, op MatVec, shift, tol float64, maxIter int, rng *randx.Rand) (float64, []float64, error) {
	n := op.Dim()
	if n == 0 {
		return 0, nil, nil
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	normalize(v)
	w := make([]float64, n)
	var lambda float64
	for it := 0; it < maxIter; it++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
		}
		op.Apply(w, v)
		if shift != 0 {
			axpy(w, v, shift)
		}
		next := dot(w, v) - shift // Rayleigh quotient of op
		norm := math.Sqrt(dot(w, w))
		if norm == 0 {
			return 0, v, nil
		}
		for i := range v {
			v[i] = w[i] / norm
		}
		if it > 0 && math.Abs(next-lambda) <= tol*math.Max(1, math.Abs(next)) {
			lambda = next
			break
		}
		lambda = next
	}
	return lambda, v, nil
}

// NetworkValuesCtx returns the absolute components of the principal
// (Perron) eigenvector sorted descending — the series plotted in the
// paper's "network value" panels. The power iteration checks run's
// context once per iteration and a "network-values" stage event pair is
// emitted.
func NetworkValuesCtx(run *pipeline.Run, g *graph.Graph, rng *randx.Rand) ([]float64, error) {
	done := run.Stage("network-values")
	shift := float64(g.MaxDegree())
	_, vec, err := PowerIterationCtx(run.Context(), AdjacencyOp{G: g}, shift, 1e-9, 2000, rng)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vec))
	for i, x := range vec {
		out[i] = math.Abs(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	done()
	return out, nil
}

// ScreeValuesCtx returns the top-k singular values of the adjacency
// matrix of g (for symmetric matrices, |eigenvalues|), sorted
// descending. The Lanczos iteration checks run's context once per step
// and a "scree" stage event pair is emitted.
func ScreeValuesCtx(run *pipeline.Run, g *graph.Graph, k int, rng *randx.Rand) ([]float64, error) {
	done := run.Stage("scree")
	eig, err := TopEigenCtx(run.Context(), AdjacencyOp{G: g}, k, 0, rng)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(eig))
	for i, x := range eig {
		out[i] = math.Abs(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	done()
	return out, nil
}

// JacobiEigen computes all eigenvalues of a dense symmetric matrix with
// the cyclic Jacobi rotation method. It is O(n³) and intended as a test
// oracle and for small matrices. The input is not modified.
func JacobiEigen(m [][]float64) []float64 {
	n := len(m)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), m[i]...)
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-15 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i][i]
	}
	sort.Float64s(out)
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst, x []float64, alpha float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

func normalize(v []float64) {
	n := math.Sqrt(dot(v, v))
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
