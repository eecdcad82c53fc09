package sched_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

// oneShotStep is one call of the pooled-state sequence: an algorithm
// by name, a graph and a topology.
type oneShotStep struct {
	algo string
	g    *dag.Graph
	net  *network.Topology
}

// oneShotSequence mixes every ByName preset over topologies with more
// links, then fewer, then more again, so pooled states are rebound
// across policy sets and topologies of every size in both directions.
// A cyclic graph and a graph with an unplaceable task sit in between:
// a failed run hands its state back to the pool like any other.
func oneShotSequence() []oneShotStep {
	r := rand.New(rand.NewSource(3))
	nets := []*network.Topology{
		network.RandomCluster(r, network.RandomClusterParams{Processors: 8}),
		network.Star(6, network.Uniform(1), network.Uniform(1)),
		network.Line(3, network.Uniform(1), network.Uniform(2)),
		network.RandomCluster(r, network.RandomClusterParams{Processors: 12}),
	}
	cyclic := dag.New()
	a, b := cyclic.AddTask("a", 1), cyclic.AddTask("b", 1)
	cyclic.AddEdge(a, b, 1)
	cyclic.AddEdge(b, a, 1)
	unplaceable := dag.New()
	x := unplaceable.AddTask("x", 1)
	y := unplaceable.AddTask("y", 1e300)
	unplaceable.AddEdge(x, y, 1)
	slowProcs := network.Star(2, network.Uniform(1e-10), network.Uniform(1))

	var steps []oneShotStep
	for i, net := range nets {
		for j, algo := range sched.AlgorithmNames() {
			steps = append(steps, oneShotStep{algo, engineGraph(4*i + j), net})
		}
		steps = append(steps,
			oneShotStep{"OIHSA", cyclic, net},
			oneShotStep{"BBSA", unplaceable, slowProcs},
			oneShotStep{"BA-EFT", engineGraph(i), net})
	}
	return steps
}

// runOneShotSequence runs every step as a one-shot call, on a pooled
// state, and as a fresh-state run, and requires the same error or
// bit-identical schedules that verify.
func runOneShotSequence(steps []oneShotStep) error {
	for i, st := range steps {
		alg, err := sched.ByName(st.algo)
		if err != nil {
			return err
		}
		got, gotErr := alg.Schedule(st.g, st.net)
		want, wantErr := sched.FreshSchedule(alg, st.g, st.net)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("step %d (%s): one-shot error %v, fresh state %v", i, st.algo, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if d := sched.DiffSchedules(want, got); d != "" {
			return fmt.Errorf("step %d (%s): one-shot run diverged from the fresh state: %s", i, st.algo, d)
		}
		if res := verify.Verify(got); !res.OK() {
			return fmt.Errorf("step %d (%s): invalid schedule: %v", i, st.algo, res.Err())
		}
	}
	return nil
}

// TestOneShotMatchesFreshState pins the one-shot state pool: every
// one-shot call of a mixed sequence — all presets, growing and
// shrinking topologies, failing runs in between — equals a run on a
// fresh state and verifies. Four goroutines then run the sequence at
// once, so under -race no two calls may share a pooled state.
func TestOneShotMatchesFreshState(t *testing.T) {
	steps := oneShotSequence()
	if err := runOneShotSequence(steps); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = runOneShotSequence(steps)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}

// TestOneShotAfterTopologyGrows pins that a pooled state does not route
// over a stale view of a topology its caller grew between two one-shot
// calls: after a new processor and its link, BA (cached BFS routes) and
// OIHSA still equal fresh-state runs and verify.
func TestOneShotAfterTopologyGrows(t *testing.T) {
	net := network.Line(3, network.Uniform(1), network.Uniform(1))
	g := engineGraph(5)
	for round := 0; round < 2; round++ {
		for _, alg := range []sched.Algorithm{sched.NewBA(), sched.NewOIHSA()} {
			got, err := alg.Schedule(g, net)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sched.FreshSchedule(alg, g, net)
			if err != nil {
				t.Fatal(err)
			}
			if d := sched.DiffSchedules(want, got); d != "" {
				t.Fatalf("round %d, %s: one-shot run diverged from the fresh state: %s", round, alg.Name(), d)
			}
			if res := verify.Verify(got); !res.OK() {
				t.Fatalf("round %d, %s: invalid schedule: %v", round, alg.Name(), res.Err())
			}
		}
		// A shortcut between the line's ends, over a new processor.
		p := net.AddProcessor("", 1)
		net.AddDuplex(p, 0, 4)
		net.AddDuplex(p, 2, 4)
	}
}
