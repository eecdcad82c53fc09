package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sched"
)

// runBatch makes one run of a batch workload: one goroutine schedules
// every instance with BA, OIHSA and BBSA one-shot, pass after pass,
// for the run's duration — the cold path internal/experiment takes.
// An untimed reference pass checks each schedule with verify.Verify
// first; every timed schedule must equal its reference bit for bit.
func runBatch(ctx context.Context, cfg config, w spec, in inputs) (outcome, error) {
	ps, setups, err := timedDecode(in)
	if err != nil {
		return outcome{}, err
	}
	refs, err := references(ps, paperAlgorithms, nil)
	if err != nil {
		return outcome{}, err
	}
	o := newOutcome(w, cfg, digest(refs))
	if cfg.trace {
		return o, traceBatch(cfg, w, in, refs, &o)
	}
	lss := make([]*sched.ListScheduler, len(paperAlgorithms))
	for a, name := range paperAlgorithms {
		if lss[a], err = preset(name); err != nil {
			return o, err
		}
	}
	var (
		lats     []float64
		busy     time.Duration
		deadline = time.Now().Add(cfg.seconds)
	)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := ctx.Err(); err != nil {
			return o, err
		}
		for a, ls := range lss {
			for i, p := range ps {
				t0 := time.Now()
				s, err := ls.Schedule(p.g, p.net)
				d := time.Since(t0)
				busy += d
				o.res.Attempted++
				if err == nil && fingerprint(s) != refs[a][i].fp {
					err = fmt.Errorf("%s on instance %d differs from the reference", ls.Name(), i)
				}
				if err != nil {
					o.fail(err)
					continue
				}
				lats = append(lats, ms(d))
			}
		}
	}
	o.info.Samples = len(lats)
	m := newMetricSet(endToEnd)
	setE2E(m, lats, busy, setups)
	return o, o.finish(m)
}

// timedDecode decodes the inputs setupRepeats times, returning the last
// decoding and each one's duration in seconds: a batch workload's
// set-up is reading its instances.
func timedDecode(in inputs) ([]problem, []float64, error) {
	var ps []problem
	setups := make([]float64, setupRepeats)
	for k := range setups {
		t0 := time.Now()
		var err error
		if ps, err = decode(in); err != nil {
			return nil, nil, err
		}
		setups[k] = time.Since(t0).Seconds()
	}
	return ps, setups, nil
}
