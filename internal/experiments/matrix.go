package experiments

import (
	"fmt"

	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/machine"
	"haswellep/internal/report"
)

// NodeMatrixResult holds node-to-node memory latency and bandwidth
// matrices — the simulator's rendition of Intel MLC's headline output,
// derived entirely from the protocol engine.
type NodeMatrixResult struct {
	Mode      machine.SnoopMode
	LatencyNs [][]float64 // [requester node][memory node]
	GBps      [][]float64
	Latency   *report.Table
	Bandwidth *report.Table
}

// NodeMatrix measures, for every pair of (requesting node, memory node),
// the unloaded memory latency and the single-core streaming bandwidth.
// Measurements run from the first core of the requesting node over freshly
// flushed buffers, matching the paper's methodology.
func NodeMatrix(mode machine.SnoopMode) NodeMatrixResult {
	env := NewEnv(mode)
	n := env.M.Topo.Nodes()
	res := NodeMatrixResult{Mode: mode}
	res.LatencyNs = make([][]float64, n)
	res.GBps = make([][]float64, n)

	for from := 0; from < n; from++ {
		res.LatencyNs[from] = make([]float64, n)
		res.GBps[from] = make([]float64, n)
		core := env.FirstCore(from)
		for to := 0; to < n; to++ {
			owner := env.FirstCore(to)
			r := env.Alloc(to, SizeMem)

			env.Fresh()
			env.placeFlushed(owner, r)
			res.LatencyNs[from][to] = bench.Latency(env.E, core, r).MeanNs

			env.Fresh()
			env.placeFlushed(owner, r)
			res.GBps[from][to] = bwmodel.ReadStream(env.E, core, r,
				bwmodel.AVX256, bwmodel.ConcurrencyFor(mode)).GBps
		}
	}

	headers := []string{"from\\mem"}
	for to := 0; to < n; to++ {
		headers = append(headers, fmt.Sprintf("node%d", to))
	}
	res.Latency = report.NewTable(
		fmt.Sprintf("Memory latency matrix (ns), %v", mode), headers...)
	res.Bandwidth = report.NewTable(
		fmt.Sprintf("Single-core memory bandwidth matrix (GB/s), %v", mode), headers...)
	for from := 0; from < n; from++ {
		lrow := []string{fmt.Sprintf("node%d", from)}
		brow := []string{fmt.Sprintf("node%d", from)}
		for to := 0; to < n; to++ {
			lrow = append(lrow, fmtNs(res.LatencyNs[from][to]))
			brow = append(brow, fmtGB(res.GBps[from][to]))
		}
		res.Latency.AddRow(lrow...)
		res.Bandwidth.AddRow(brow...)
	}
	return res
}

// Symmetric reports whether the latency matrix is symmetric within tol ns —
// true on this machine up to per-core ring-position effects.
func (r NodeMatrixResult) Symmetric(tolNs float64) bool {
	n := len(r.LatencyNs)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := r.LatencyNs[a][b] - r.LatencyNs[b][a]
			if d < -tolNs || d > tolNs {
				return false
			}
		}
	}
	return true
}

// DiagonalDominant reports whether every node's local memory is its
// fastest, up to tolNs of slack. The slack matters: on the asymmetric
// 12-core die, node1's ring-0 cores reach node0's IMC slightly faster than
// their own node's IMC across the ring bridge — the COD anomaly the paper's
// Section VI-C analyzes (its Table III shows the same few-ns spread).
func (r NodeMatrixResult) DiagonalDominant(tolNs float64) bool {
	n := len(r.LatencyNs)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && r.LatencyNs[a][a] >= r.LatencyNs[a][b]+tolNs {
				return false
			}
		}
	}
	return true
}
