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
// Runs of a graph with an unplaceable task sit in between: a failed run
// hands its state back to the pool like any other.
func oneShotSequence(t *testing.T) []oneShotStep {
	r := rand.New(rand.NewSource(3))
	nets := []*network.Topology{
		network.RandomCluster(r, network.RandomClusterParams{Processors: 8}),
		network.Star(6, network.Uniform(1), network.Uniform(1)),
		network.Line(3, network.Uniform(1), network.Uniform(2)),
		network.RandomCluster(r, network.RandomClusterParams{Processors: 12}),
	}
	var b dag.Builder
	b.AddEdge(b.AddTask("x", 1), b.AddTask("y", 1e300), 1)
	unplaceable := mustBuild(t, &b)
	slowProcs := network.Star(2, network.Uniform(1e-10), network.Uniform(1))

	var steps []oneShotStep
	for i, net := range nets {
		for j, algo := range sched.AlgorithmNames() {
			steps = append(steps, oneShotStep{algo, engineGraph(4*i + j), net})
		}
		steps = append(steps,
			oneShotStep{"OIHSA", unplaceable, slowProcs},
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
	steps := oneShotSequence(t)
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
