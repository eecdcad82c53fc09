package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
)

// oracleAlgorithms are the probing engine/policy combinations the
// rollback property test drives on random clusters: the paper's BA-EFT
// preset plus variants exercising optimal-insertion shifts, bandwidth
// and packet timelines, and duplication.
func oracleAlgorithms() map[string]*ListScheduler {
	return map[string]*ListScheduler{
		"BA-EFT": NewBASinnen(),
		"EFT-optimal": NewCustom("EFT-optimal", Options{
			Routing: RoutingDijkstra, Insertion: InsertionOptimal,
			EdgeOrder: EdgeOrderDescCost, ProcSelect: ProcSelectEFT,
		}),
		"EFT-bandwidth": NewCustom("EFT-bandwidth", Options{
			Routing: RoutingDijkstra, ProcSelect: ProcSelectEFT, Engine: EngineBandwidth,
		}),
		"EFT-packets": NewCustom("EFT-packets", Options{
			ProcSelect: ProcSelectEFT, Engine: EnginePackets, PacketSize: 40,
		}),
		"EFT-duplication": NewCustom("EFT-duplication", Options{
			ProcSelect: ProcSelectEFT, Duplication: true,
		}),
	}
}

// TestRollbackOracleProperty is the rollback-completeness property test
// on random cluster topologies, whose routes are multi-hop and uneven:
// for every algorithm × task policy × seed, each task's probes of every
// processor, and the selection's own probes, must leave the state
// bit-for-bit as it was (an empty fingerprint diff, which names the
// corrupted column otherwise). The stepped run, with its extra probes,
// must also yield exactly the schedule of the plain run — probing is
// never a result knob.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// stepped schedule is compared bit-for-bit against the plain run, and
// the same engines and policies run under the full validator in
// sched_test.go.
func TestRollbackOracleProperty(t *testing.T) {
	for name, algo := range oracleAlgorithms() {
		t.Run(name, func(t *testing.T) {
			for _, policy := range []TaskPolicy{TaskAppend, TaskInsertion} {
				if algo.Opts.Duplication && policy != TaskAppend {
					continue // duplication requires append placement
				}
				opts := algo.Opts
				opts.TaskPolicy = policy
				for seed := int64(1); seed <= 3; seed++ {
					r := rand.New(rand.NewSource(seed))
					g := dag.RandomLayered(r, dag.RandomLayeredParams{
						Tasks:    30,
						TaskCost: dag.CostDist{Lo: 1, Hi: 50},
						EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
					})
					net := network.RandomCluster(r, network.RandomClusterParams{Processors: 6})

					s := mkState(t, g, net, opts)
					for _, tid := range priorityOrder(g, opts.Priority) {
						fp := s.captureFingerprint()
						for pi := range net.NumProcessors() {
							p := net.Processor(pi)
							if _, err := s.probe(tid, p); err != nil {
								t.Fatal(err)
							}
						}
						proc, err := s.selectProcessor(tid)
						if err != nil {
							t.Fatal(err)
						}
						if d := fp.diff(s); d != "" {
							t.Fatalf("policy=%v seed %d task %d: probing mutated the state: %s", policy, seed, tid, d)
						}
						if err := s.commitTask(tid, proc); err != nil {
							t.Fatal(err)
						}
					}
					want, err := NewCustom(algo.AlgorithmName, opts).Schedule(g, net)
					if err != nil {
						t.Fatal(err)
					}
					if got := s.result(algo.AlgorithmName); !reflect.DeepEqual(got, want) {
						t.Fatalf("policy=%v seed %d: stepped run with extra probes differs from the plain run", policy, seed)
					}
				}
			}
		})
	}
}
