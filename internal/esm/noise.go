package esm

import (
	"repro/internal/grid"
)

// noiseField generates smooth, temporally correlated weather noise: a
// coarse random field is evolved as an AR(1) process day by day and
// bilinearly interpolated to the model grid. This gives synoptic-scale
// spatial structure (weather systems) rather than white pixel noise.
type noiseField struct {
	coarse grid.Grid
	state  *grid.Field
	out    *grid.Field // step's result, overwritten by the next step
	rng    *prng
	// rho is the day-to-day autocorrelation; sigma the innovation
	// standard deviation.
	rho, sigma float64
}

func newNoiseField(target grid.Grid, rng *prng, rho, sigma float64) *noiseField {
	coarse := grid.Grid{NLat: maxInt(target.NLat/6, 4), NLon: maxInt(target.NLon/6, 8)}
	n := &noiseField{
		coarse: coarse,
		state:  grid.NewField(coarse),
		out:    grid.NewField(target),
		rng:    rng,
		rho:    rho,
		sigma:  sigma,
	}
	// spin up to the stationary distribution
	for i := range n.state.Data {
		n.state.Data[i] = float32(rng.NormFloat64() * sigma / (1 - rho))
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// step evolves the coarse state one day and returns the interpolated
// full-resolution field, valid until the next step.
func (n *noiseField) step() *grid.Field {
	for i := range n.state.Data {
		n.state.Data[i] = float32(n.rho*float64(n.state.Data[i]) + n.rng.NormFloat64()*n.sigma)
	}
	return n.state.RegridInto(n.out)
}
