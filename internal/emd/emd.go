// Package emd implements the discrete Earth Mover's Distance (Wasserstein
// distance) used by the paper to formalize Internet centralization.
//
// Two implementations are provided:
//
//   - A general transportation-problem solver (Solve) over arbitrary supply,
//     demand, and ground-distance matrices, implemented as successive
//     shortest augmenting paths over the bipartite flow network. This is the
//     textbook formalization from the paper's Appendix A.
//
//   - The paper's closed-form instantiation (Centralization), where the
//     reference distribution is fully decentralized (every website has its
//     own provider) and the ground distance between observed pile a_i and a
//     reference pile is (a_i − 1)/C. Appendix A shows the optimum work then
//     collapses to 𝒮 = Σ (a_i/C)² − 1/C.
//
// The test suite uses the general solver to verify the closed form, which is
// the equivalence claim at the heart of the paper's Section 3.2.
package emd

import (
	"errors"
	"math"
)

// ErrUnbalanced is returned by Solve when total supply and total demand
// differ by more than a floating-point tolerance.
var ErrUnbalanced = errors.New("emd: total supply and demand differ")

// ErrDimensions is returned when the cost matrix does not match the supply
// and demand vector lengths.
var ErrDimensions = errors.New("emd: cost matrix dimensions mismatch")

const balanceTolerance = 1e-6

// Flow records how much mass the optimal transportation plan moves from
// supply pile From to demand pile To.
type Flow struct {
	From, To int
	Amount   float64
}

// Plan is the result of an exact EMD computation.
type Plan struct {
	// Work is the optimal total transportation cost Σ f_ij · d_ij.
	Work float64
	// TotalFlow is the total mass moved (equal to total supply).
	TotalFlow float64
	// Flows lists the nonzero flows of one optimal plan.
	Flows []Flow
}

// Distance returns the normalized EMD: Work / TotalFlow, the form the paper
// uses when ground distances lie in [0, 1]. It returns 0 when no mass moves.
func (p *Plan) Distance() float64 {
	if p.TotalFlow == 0 {
		return 0
	}
	return p.Work / p.TotalFlow
}

// Solve computes an exact optimal transportation plan moving the supply
// distribution onto the demand distribution under the ground-distance matrix
// cost, where cost[i][j] is the price of moving one unit from supply pile i
// to demand pile j. Supplies and demands must be nonnegative and balanced.
//
// The implementation is successive shortest augmenting paths with
// Bellman–Ford–style potentials, exact for nonnegative costs. Complexity is
// O(piles³) in the worst case, which is ample for the distribution sizes in
// this toolkit (the hot path uses the closed form instead).
func Solve(supply, demand []float64, cost [][]float64) (*Plan, error) {
	n, m := len(supply), len(demand)
	if len(cost) != n {
		return nil, ErrDimensions
	}
	for _, row := range cost {
		if len(row) != m {
			return nil, ErrDimensions
		}
	}
	var totalS, totalD float64
	for _, s := range supply {
		if s < 0 {
			return nil, errors.New("emd: negative supply")
		}
		totalS += s
	}
	for _, d := range demand {
		if d < 0 {
			return nil, errors.New("emd: negative demand")
		}
		totalD += d
	}
	scale := math.Max(totalS, 1)
	if math.Abs(totalS-totalD) > balanceTolerance*scale {
		return nil, ErrUnbalanced
	}

	remS := append([]float64(nil), supply...)
	remD := append([]float64(nil), demand...)
	flow := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, m)
	}

	active := func(xs []float64) []int {
		var idx []int
		for i, x := range xs {
			if x > balanceTolerance {
				idx = append(idx, i)
			}
		}
		return idx
	}

	for {
		srcs := active(remS)
		if len(srcs) == 0 {
			break
		}
		sinks := active(remD)
		if len(sinks) == 0 {
			break
		}

		// Shortest path from any active source to any active sink in the
		// residual network under true costs. Forward arc i→j costs
		// cost[i][j]; a backward arc j→i exists when flow[i][j] > 0 and
		// costs −cost[i][j]. Augmenting only along shortest paths keeps the
		// residual network free of negative cycles, so Bellman–Ford label
		// correction terminates and the final plan is optimal.
		const inf = math.MaxFloat64
		distS := make([]float64, n)
		distD := make([]float64, m)
		prevD := make([]int, m) // supply node feeding demand j on the path
		prevS := make([]int, n) // demand node feeding supply i (backward arc)
		for i := range distS {
			distS[i] = inf
			prevS[i] = -1
		}
		for j := range distD {
			distD[j] = inf
			prevD[j] = -1
		}
		for _, i := range srcs {
			distS[i] = 0
		}
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if distS[i] == inf {
					continue
				}
				for j := 0; j < m; j++ {
					if d := distS[i] + cost[i][j]; d < distD[j]-1e-12 {
						distD[j] = d
						prevD[j] = i
						changed = true
					}
				}
			}
			for j := 0; j < m; j++ {
				if distD[j] == inf {
					continue
				}
				for i := 0; i < n; i++ {
					if flow[i][j] <= balanceTolerance {
						continue
					}
					if d := distD[j] - cost[i][j]; d < distS[i]-1e-12 {
						distS[i] = d
						prevS[i] = j
						changed = true
					}
				}
			}
		}

		// Pick the reachable active sink with minimal distance.
		best := -1
		for _, j := range sinks {
			if distD[j] < inf && (best == -1 || distD[j] < distD[best]) {
				best = j
			}
		}
		if best == -1 {
			return nil, errors.New("emd: no augmenting path (internal)")
		}

		// Trace the path backward to find the bottleneck.
		type arc struct {
			i, j    int
			forward bool
		}
		var path []arc
		bottleneck := remD[best]
		j := best
		for {
			i := prevD[j]
			path = append(path, arc{i, j, true})
			if prevS[i] == -1 {
				bottleneck = math.Min(bottleneck, remS[i])
				break
			}
			jj := prevS[i]
			path = append(path, arc{i, jj, false})
			bottleneck = math.Min(bottleneck, flow[i][jj])
			j = jj
		}

		for _, a := range path {
			if a.forward {
				flow[a.i][a.j] += bottleneck
			} else {
				flow[a.i][a.j] -= bottleneck
			}
		}
		// The path's source endpoint is the supply node of its last arc.
		srcNode := path[len(path)-1].i
		remS[srcNode] -= bottleneck
		remD[best] -= bottleneck
	}

	plan := &Plan{TotalFlow: totalS}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if flow[i][j] > balanceTolerance {
				plan.Work += flow[i][j] * cost[i][j]
				plan.Flows = append(plan.Flows, Flow{From: i, To: j, Amount: flow[i][j]})
			}
		}
	}
	return plan, nil
}

// Centralization computes the paper's centralization score 𝒮 for an
// observed distribution of provider website counts:
//
//	𝒮 = Σ (a_i/C)² − 1/C,   C = Σ a_i
//
// which Appendix A derives as the exact EMD between the observed
// distribution and a fully decentralized reference (one provider per
// website) under the ground distance d_ij = (a_i − 1)/C. Counts must be
// nonnegative; zero-count providers contribute nothing. It returns 0 for an
// empty or all-zero distribution.
func Centralization(counts []float64) float64 { return closedForm(counts) }

// CentralizationInts is Centralization over integer website counts, the
// natural form produced by the measurement pipeline. It allocates nothing
// and its bits equal Centralization's over the float copy.
func CentralizationInts(counts []int) float64 { return closedForm(counts) }

// closedForm is the one body of 𝒮 for both count types: converting each
// count as it is read and accumulating in slice order gives the same bits
// whichever type holds the counts.
func closedForm[T int | float64](counts []T) float64 {
	var c float64
	for _, a := range counts {
		if a > 0 {
			c += float64(a)
		}
	}
	if c == 0 {
		return 0
	}
	var sumSq float64
	for _, a := range counts {
		if a > 0 {
			share := float64(a) / c
			sumSq += share * share
		}
	}
	return sumSq - 1/c
}

// ReferenceEMD computes 𝒮 through the general solver rather than the closed
// form: it builds the fully decentralized reference distribution (C piles of
// size 1) and the paper's ground distance d_ij = (a_i − 1)/C, then solves
// the transportation problem exactly and normalizes by total flow. It exists
// to validate the closed form and to support alternative references; counts
// must be positive integers and small enough that a C-pile reference is
// tractable.
func ReferenceEMD(counts []int) (float64, error) {
	var c int
	for _, a := range counts {
		if a < 0 {
			return 0, errors.New("emd: negative count")
		}
		c += a
	}
	if c == 0 {
		return 0, nil
	}
	var supply []float64
	var rows []int
	for i, a := range counts {
		if a > 0 {
			supply = append(supply, float64(a))
			rows = append(rows, i)
		}
	}
	demand := make([]float64, c)
	for j := range demand {
		demand[j] = 1
	}
	cost := make([][]float64, len(supply))
	for r, i := range rows {
		cost[r] = make([]float64, c)
		d := (float64(counts[i]) - 1) / float64(c)
		for j := range cost[r] {
			cost[r][j] = d
		}
	}
	plan, err := Solve(supply, demand, cost)
	if err != nil {
		return 0, err
	}
	return plan.Distance(), nil
}

// MaxCentralization returns the largest 𝒮 achievable with C total websites:
// 1 − 1/C, reached when a single provider hosts everything.
func MaxCentralization(c int) float64 {
	if c <= 0 {
		return 0
	}
	return 1 - 1/float64(c)
}
