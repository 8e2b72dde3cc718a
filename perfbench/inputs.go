package main

import (
	"fmt"

	"oic/pkg/oic"
)

// Input streams: each workload draws its cases from its own stream, so
// the same seed gives different workloads independent inputs.
const (
	streamFleetSteady uint64 = iota + 1
	streamServeSessions
	streamServeFleet
)

// caseSeed derives the i-th case seed of a stream from the run seed with
// the splitmix64 finalizer: every input is a pure function of
// (workload, seed, i).
func caseSeed(seed int64, stream uint64, i int) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// episode is one recorded case: an initial state in X′ and the
// disturbance trace the plant's scenario process draws after it.
type episode struct {
	x0 []float64
	w  [][]float64
}

// drawCases draws cases [first, first+n) of a stream, each steps long,
// with the paper pipeline's own case recipe (Engine.DrawCase).
func drawCases(e *oic.Engine, seed int64, stream uint64, first, n, steps int) ([]episode, error) {
	out := make([]episode, n)
	for i := range out {
		x0, w, err := e.DrawCase(caseSeed(seed, stream, first+i), steps)
		if err != nil {
			return nil, fmt.Errorf("drawing case %d: %w", first+i, err)
		}
		out[i] = episode{x0: x0, w: w}
	}
	return out, nil
}
