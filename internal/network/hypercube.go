// Package network models the Origin 2000's interconnect: routers arranged in
// a hypercube, with ProcsPerRouter processors attached to each router
// ("bristled" hypercube). The package answers one question for the
// simulator: how many cycles does a message between two nodes cost?
//
// The key property the paper depends on is that the average memory access
// latency tm grows with the processor count, because a larger machine has
// more router hops between a processor and the average home node ("with more
// processors, the physical dimensions of the machine are larger and,
// therefore, accesses to main memory take longer", §2.3).
package network

import (
	"fmt"
	"math/bits"

	"scaltool/internal/assert"
)

// hopTableMaxRouters bounds the precomputed router-pair hop table: beyond
// this the table would outweigh the caches being simulated, so Hops falls
// back to computing the Hamming distance on demand (identical values).
const hopTableMaxRouters = 1024

// Topology is an immutable description of a bristled hypercube connecting a
// fixed number of processors. Construction precomputes the processor→router
// map and the router-pair hop table, so the per-miss latency questions the
// simulator asks (OneWayCycles, RoundTripCycles) are two table loads and a
// multiply — no divisions or popcounts on the hot path.
type Topology struct {
	procs          int
	procsPerRouter int
	routers        int // power of two ≥ ceil(procs/procsPerRouter)
	dim            int // log2(routers)
	routerHop      int // cycles per hop

	routerOf []int32 // proc → router
	hopTab   []uint8 // routers×routers Hamming distances; nil above hopTableMaxRouters
}

// New builds the topology for the given processor count. procsPerRouter is
// the bristling factor (2 on the Origin). routerHop is the per-hop cost in
// cycles.
func New(procs, procsPerRouter, routerHop int) (*Topology, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("network: procs must be positive, got %d", procs)
	}
	if procsPerRouter <= 0 {
		return nil, fmt.Errorf("network: procsPerRouter must be positive, got %d", procsPerRouter)
	}
	if routerHop < 0 {
		return nil, fmt.Errorf("network: routerHop must be non-negative, got %d", routerHop)
	}
	need := (procs + procsPerRouter - 1) / procsPerRouter
	routers := 1
	dim := 0
	for routers < need {
		routers <<= 1
		dim++
	}
	t := &Topology{
		procs:          procs,
		procsPerRouter: procsPerRouter,
		routers:        routers,
		dim:            dim,
		routerHop:      routerHop,
	}
	t.routerOf = make([]int32, procs)
	for p := 0; p < procs; p++ {
		t.routerOf[p] = int32(p / procsPerRouter)
	}
	if routers <= hopTableMaxRouters {
		t.hopTab = make([]uint8, routers*routers)
		for a := 0; a < routers; a++ {
			for b := 0; b < routers; b++ {
				t.hopTab[a*routers+b] = uint8(bits.OnesCount(uint(a ^ b)))
			}
		}
	}
	return t, nil
}

// Routers returns the number of routers in the hypercube.
func (t *Topology) Routers() int { return t.routers }

// Dim returns the hypercube dimension (log2 of the router count).
func (t *Topology) Dim() int { return t.dim }

// Router returns the router a processor is attached to. Processors are
// assigned to routers round-robin-free, in contiguous blocks, matching how
// Origin nodes hold two processors each.
func (t *Topology) Router(proc int) int {
	t.check(proc)
	return int(t.routerOf[proc])
}

// Hops returns the number of router-to-router hops on the minimal path
// between two processors: the Hamming distance of their router IDs (0 when
// they share a router).
func (t *Topology) Hops(from, to int) int {
	t.check(from)
	t.check(to)
	a, b := t.routerOf[from], t.routerOf[to]
	if t.hopTab != nil {
		return int(t.hopTab[int(a)*t.routers+int(b)])
	}
	return bits.OnesCount(uint(a ^ b))
}

// OneWayCycles returns the network cost in cycles of a one-way message from
// one processor to another. Same-router messages are free at this level of
// abstraction (the node-level costs live in the latency parameters).
func (t *Topology) OneWayCycles(from, to int) int {
	return t.Hops(from, to) * t.routerHop
}

// RoundTripCycles returns the cost of a request/response pair.
func (t *Topology) RoundTripCycles(from, to int) int {
	return 2 * t.OneWayCycles(from, to)
}

func (t *Topology) check(proc int) {
	if proc < 0 || proc >= t.procs {
		assert.Failf("network: processor %d out of range [0,%d)", proc, t.procs)
	}
}
