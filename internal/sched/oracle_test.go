package sched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
)

// oracleAlgorithms are the engine/policy combinations the rollback
// oracle property test drives: the paper's named algorithms plus the
// probing variants where every placement runs inside a transaction —
// including the combinations that exercise optimal-insertion shifts
// (cowEdge), bandwidth and packet timelines, processor-timeline
// insertion, and duplication.
func oracleAlgorithms() map[string]*sched.ListScheduler {
	algos := map[string]*sched.ListScheduler{
		"BA":     sched.NewBA(),
		"BA-EFT": sched.NewBASinnen(),
		"OIHSA":  sched.NewOIHSA(),
		"BBSA":   sched.NewBBSA(),
	}
	algos["EFT-optimal"] = sched.NewCustom("EFT-optimal", sched.Options{
		Routing: sched.RoutingDijkstra, Insertion: sched.InsertionOptimal,
		EdgeOrder: sched.EdgeOrderDescCost, ProcSelect: sched.ProcSelectEFT,
	})
	algos["EFT-bandwidth"] = sched.NewCustom("EFT-bandwidth", sched.Options{
		Routing: sched.RoutingDijkstra, ProcSelect: sched.ProcSelectEFT,
		Engine: sched.EngineBandwidth,
	})
	algos["EFT-packets"] = sched.NewCustom("EFT-packets", sched.Options{
		ProcSelect: sched.ProcSelectEFT, Engine: sched.EnginePackets, PacketSize: 40,
	})
	algos["EFT-duplication"] = sched.NewCustom("EFT-duplication", sched.Options{
		ProcSelect: sched.ProcSelectEFT, Duplication: true,
	})
	return algos
}

// TestRollbackOracleSampled runs the paper's presets with the sampled
// oracle (Options.VerifyRollbackEvery) armed: every 7th probe
// transaction is fingerprinted. Sampling cuts the oracle's O(state)
// per-probe cost enough to keep this in the ordinary `go test` run —
// an un-journaled write in a deterministic scheduler corrupts probes
// repeatedly, so the sampled fingerprints still catch it — while the
// exhaustive every-probe property test below stays the CI oracle
// job's responsibility. The sampled run must also leave results
// untouched: the schedule is compared against an oracle-free run.
func TestRollbackOracleSampled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    40,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
	net := network.RandomCluster(r, network.RandomClusterParams{Processors: 6})
	for name, algo := range oracleAlgorithms() {
		algo := algo
		t.Run(name, func(t *testing.T) {
			run := func(every int) *sched.Schedule {
				a := sched.NewCustom(algo.AlgorithmName, algo.Opts)
				a.Opts.VerifyRollbackEvery = every
				return mustSchedule(t, a, g, net)
			}
			base := run(0)
			if got := run(7); !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: sampled oracle changed the schedule", name)
			}
		})
	}
}

// TestRollbackOracleProperty is the rollback-completeness property
// test: every algorithm × task policy × random DAG/topology seed runs
// with the rollback oracle armed, so each probe transaction proves its
// rollback restored the state bit-for-bit (the oracle panics otherwise,
// naming the corrupted field). Schedules must additionally be
// bit-identical to an oracle-free run — the oracle must never be a
// result knob.
func TestRollbackOracleProperty(t *testing.T) {
	for name, algo := range oracleAlgorithms() {
		algo := algo
		t.Run(name, func(t *testing.T) {
			for _, policy := range []sched.TaskPolicy{sched.TaskAppend, sched.TaskInsertion} {
				if algo.Opts.Duplication && policy != sched.TaskAppend {
					continue // duplication requires append placement
				}
				for seed := int64(1); seed <= 3; seed++ {
					r := rand.New(rand.NewSource(seed))
					g := dag.RandomLayered(r, dag.RandomLayeredParams{
						Tasks:    30,
						TaskCost: dag.CostDist{Lo: 1, Hi: 50},
						EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
					})
					net := network.RandomCluster(r, network.RandomClusterParams{Processors: 6})

					run := func(every int) *sched.Schedule {
						a := sched.NewCustom(algo.AlgorithmName, algo.Opts)
						a.Opts.TaskPolicy = policy
						a.Opts.VerifyRollbackEvery = every
						return mustSchedule(t, a, g, net)
					}
					base := run(0)
					if got := run(1); !reflect.DeepEqual(got, base) {
						t.Fatalf("%s policy=%v seed %d: schedule under the oracle differs from the oracle-free run",
							name, policy, seed)
					}
				}
			}
		})
	}
}
