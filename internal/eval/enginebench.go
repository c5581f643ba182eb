package eval

import (
	"math"
	"time"

	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// EngineSweepProtocol builds the agent machine of the constant-direction
// sweep workload shared by the engine throughput benchmarks
// (BenchmarkEngineLeap / BenchmarkEngineLeapSingle in the repository root)
// and the benchtables -engine mode: each agent keeps a direction fixed by the
// parity of its identifier (both directions present) for the given number of
// rounds, in YieldRoundN batches of the given size.  batch = 1 submits one
// round per crossing — the per-round path — and larger batches use leap
// execution.  Keeping the single copy here is what entitles EXPERIMENTS.md to
// claim the benchmark pair and the BENCH_engine.json table measure the same
// workload.
func EngineSweepProtocol(rounds, batch int) func(a *engine.Agent) *engine.Proto[int] {
	return func(a *engine.Agent) *engine.Proto[int] {
		dir := ring.Clockwise
		if a.ID()%2 == 0 {
			dir = ring.Anticlockwise
		}
		return engine.NewProto(func(done func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			traceLen := 0
			var loop func(dr int) (engine.Yield, engine.Cont)
			loop = func(dr int) (engine.Yield, engine.Cont) {
				if dr >= rounds {
					return done(traceLen)
				}
				k := min(batch, rounds-dr)
				return a.YieldRoundN(dir, k), func(in engine.Resume) (engine.Yield, engine.Cont) {
					traceLen = len(in.Obs)
					return loop(dr + k)
				}
			}
			return loop(0)
		})
	}
}

// EngineSweepNetwork builds the uncapped perceptive network the engine
// throughput workload runs on.
func EngineSweepNetwork(n int, seed int64) (*engine.Network, error) {
	cfg := netgen.MustGenerate(netgen.Options{N: n, Seed: seed, Model: ring.Perceptive})
	cfg.MaxRounds = math.MaxInt
	return engine.New(cfg)
}

// MeasureEngineSweep runs the constant-direction sweep workload and returns
// the wall-clock rounds/sec.
func MeasureEngineSweep(n int, seed int64, rounds, batch int) (float64, error) {
	nw, err := EngineSweepNetwork(n, seed)
	if err != nil {
		return 0, err
	}
	//ringvet:allow determinism this is the benchmark path: rounds/sec is a wall-clock measurement by definition
	start := time.Now()
	if _, err := engine.RunFSM(nw, EngineSweepProtocol(rounds, batch)); err != nil {
		return 0, err
	}
	//ringvet:allow determinism this is the benchmark path: rounds/sec is a wall-clock measurement by definition
	return float64(rounds) / time.Since(start).Seconds(), nil
}
