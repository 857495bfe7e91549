package sweep

// TimePerIterS returns the overlapped-mode mean iteration latency in
// seconds, the canonical time metric sweep rows and advisor objectives
// share. ok is false when the point carries no result.
func (p *Point) TimePerIterS() (float64, bool) {
	if p.Res == nil {
		return 0, false
	}
	return p.Res.Overlapped.Mean.E2E, true
}

// BoardPowerW returns average overlapped-mode board power in watts:
// per-GPU average power summed over every GPU in the system.
func (p *Point) BoardPowerW() (float64, bool) {
	if p.Res == nil || len(p.Res.Overlapped.GPUPower) == 0 {
		return 0, false
	}
	var w float64
	for _, st := range p.Res.Overlapped.GPUPower {
		w += st.AvgW
	}
	return w, true
}

// EnergyPerIterJ returns the energy of an average overlapped iteration
// in joules: mean board power times mean iteration latency (the run's
// total EnergyJ spans warmup too).
func (p *Point) EnergyPerIterJ() (float64, bool) {
	w, ok := p.BoardPowerW()
	if !ok {
		return 0, false
	}
	t, ok := p.TimePerIterS()
	return w * t, ok
}
