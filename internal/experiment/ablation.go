package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/verify"
	"repro/internal/workload"
)

// AblationResult compares a family of scheduler variants over a common
// instance set: mean makespans plus the per-instance improvement of
// each variant over the first (the reference).
type AblationResult struct {
	Name       string
	Question   string
	Algorithms []string
	// MeanMakespan maps algorithm name to its mean makespan.
	MeanMakespan map[string]float64
	// Improvement maps each non-reference algorithm to the summary of
	// per-instance improvement percentages over the reference.
	Improvement map[string]stats.Summary
	Instances   int
}

// RunVariants schedules every algorithm on the instance grid defined
// by cfg (all procs × all CCRs × reps) and aggregates. The first
// algorithm is the reference.
func RunVariants(name, question string, cfg Config, algos []sched.Algorithm) (*AblationResult, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cfg.Algorithms = algos
	res := &AblationResult{
		Name:         name,
		Question:     question,
		MeanMakespan: map[string]float64{},
		Improvement:  map[string]stats.Summary{},
	}
	for _, a := range algos {
		res.Algorithms = append(res.Algorithms, a.Name())
	}
	sums := map[string][]float64{}
	imps := map[string][]float64{}
	for _, procs := range cfg.Procs {
		for _, ccr := range cfg.CCRs {
			for rep := 0; rep < cfg.Reps; rep++ {
				seed := cfg.Seed*1000003 + int64(procs)*131 + int64(ccr*10)*7 + int64(rep)
				inst := workload.Generate(workload.Params{
					Processors:    procs,
					CCR:           ccr,
					Heterogeneous: cfg.Heterogeneous,
					MinTasks:      cfg.MinTasks,
					MaxTasks:      cfg.MaxTasks,
					Seed:          seed,
				})
				var ref float64
				for i, a := range algos {
					s, err := a.Schedule(inst.Graph, inst.Net)
					if err != nil {
						return nil, fmt.Errorf("experiment: ablation %s: %s: %w", name, a.Name(), err)
					}
					if cfg.Verify && !s.Ideal {
						if err := verify.Verify(s).Err(); err != nil {
							return nil, fmt.Errorf("experiment: ablation %s: %s: %w", name, a.Name(), err)
						}
					}
					sums[a.Name()] = append(sums[a.Name()], s.Makespan)
					if i == 0 {
						ref = s.Makespan
					} else {
						imps[a.Name()] = append(imps[a.Name()], stats.ImprovementPct(ref, s.Makespan))
					}
				}
				res.Instances++
			}
		}
	}
	for name, xs := range sums {
		res.MeanMakespan[name] = stats.Mean(xs)
	}
	for name, xs := range imps {
		res.Improvement[name] = stats.Summarize(xs)
	}
	return res, nil
}

// AblationNames lists the predefined ablations sorted by name.
func AblationNames() []string {
	names := make([]string, 0, len(ablations))
	for k := range ablations {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

type ablationSpec struct {
	question string
	algos    func() []sched.Algorithm
}

var ablations = map[string]ablationSpec{
	"league": {
		question: "League table: every library scheduler and three OIHSA extensions on one instance set, against BA",
		algos: func() []sched.Algorithm {
			oi := sched.NewOIHSA().Opts
			eager, pkts, ins := oi, oi, oi
			eager.CommStart = sched.CommAtSourceFinish
			pkts.Engine = sched.EnginePackets
			pkts.Insertion = sched.InsertionBasic
			pkts.PacketSize = 100
			ins.TaskPolicy = sched.TaskInsertion
			return []sched.Algorithm{
				sched.NewBA(),
				sched.NewBASinnen(),
				sched.NewOIHSA(),
				sched.NewBBSA(),
				sched.NewDLS(),
				sched.NewCPOP(),
				sched.NewClassicReplay(),
				sched.NewCustom("OIHSA/eager", eager),
				sched.NewCustom("OIHSA/packets", pkts),
				sched.NewCustom("OIHSA/task-ins", ins),
			}
		},
	},
	"routing": {
		question: "A1: does load-aware Dijkstra routing beat BFS minimal routing, all else fixed (OIHSA stack)?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			bfs := base
			bfs.Routing = sched.RoutingBFS
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/bfs", bfs),
				sched.NewCustom("OIHSA/dijkstra", base),
			}
		},
	},
	"insertion": {
		question: "A2: does optimal insertion beat basic insertion, all else fixed (OIHSA stack)?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			basic := base
			basic.Insertion = sched.InsertionBasic
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/basic-ins", basic),
				sched.NewCustom("OIHSA/optimal-ins", base),
			}
		},
	},
	"edgeorder": {
		question: "A3: does scheduling costly edges first beat FIFO and cheapest-first (OIHSA stack)?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			fifo, asc := base, base
			fifo.EdgeOrder = sched.EdgeOrderFIFO
			asc.EdgeOrder = sched.EdgeOrderAscCost
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/fifo", fifo),
				sched.NewCustom("OIHSA/desc", base),
				sched.NewCustom("OIHSA/asc", asc),
			}
		},
	},
	"classic": {
		question: "A4: how much worse is a classic contention-free assignment once replayed on the real network, vs contention-aware scheduling?",
		algos: func() []sched.Algorithm {
			return []sched.Algorithm{
				sched.NewClassicReplay(),
				sched.NewBA(),
				sched.NewOIHSA(),
				sched.NewBBSA(),
			}
		},
	},
	"procchoice": {
		question: "A5: processor selection policies on the OIHSA stack: communication-blind (BA-style) vs §4.1 estimate vs tentative contention-aware EFT (Sinnen-style)",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			nocomm, eft := base, base
			nocomm.ProcSelect = sched.ProcSelectNoComm
			eft.ProcSelect = sched.ProcSelectEFT
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/nocomm", nocomm),
				sched.NewCustom("OIHSA/estimate", base),
				sched.NewCustom("OIHSA/eft", eft),
			}
		},
	},
	"duplication": {
		question: "A12: does duplicating predecessor-free tasks (re-executing instead of transferring) reduce makespans under contention?",
		algos: func() []sched.Algorithm {
			oi := sched.NewOIHSA().Opts
			oiDup := oi
			oiDup.Duplication = true
			ba := sched.NewBA().Opts
			baDup := ba
			baDup.Duplication = true
			return []sched.Algorithm{
				sched.NewCustom("OIHSA", oi),
				sched.NewCustom("OIHSA+dup", oiDup),
				sched.NewCustom("BA", ba),
				sched.NewCustom("BA+dup", baDup),
			}
		},
	},
	"priority": {
		question: "A11: does the task priority scheme (bl with comm, computation-only bl, criticality bl+tl) matter under contention?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			comp, crit := base, base
			comp.Priority = sched.PriorityCompBottomLevel
			crit.Priority = sched.PriorityCriticality
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/bl", base),
				sched.NewCustom("OIHSA/bl-comp", comp),
				sched.NewCustom("OIHSA/bl+tl", crit),
			}
		},
	},
	"packetsize": {
		question: "A10: does dividing messages into packets (pipelining across hops) beat circuit switching, and where does per-packet overhead turn the tide?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			base.Insertion = sched.InsertionBasic
			mk := func(size, overhead float64) sched.Options {
				o := base
				o.Engine = sched.EnginePackets
				o.PacketSize = size
				o.PacketOverhead = overhead
				return o
			}
			return []sched.Algorithm{
				sched.NewCustom("circuit", base),
				sched.NewCustom("pkt-500", mk(500, 0)),
				sched.NewCustom("pkt-100", mk(100, 0)),
				sched.NewCustom("pkt-100+ovh", mk(100, 5)),
				sched.NewCustom("pkt-20+ovh", mk(20, 5)),
			}
		},
	},
	"taskpolicy": {
		question: "A9: does insertion-based task placement (HEFT-style, beyond the paper's append-only model) further reduce makespans?",
		algos: func() []sched.Algorithm {
			oi := sched.NewOIHSA().Opts
			oiIns := oi
			oiIns.TaskPolicy = sched.TaskInsertion
			ba := sched.NewBA().Opts
			baIns := ba
			baIns.TaskPolicy = sched.TaskInsertion
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/append", oi),
				sched.NewCustom("OIHSA/insertion", oiIns),
				sched.NewCustom("BA/append", ba),
				sched.NewCustom("BA/insertion", baIns),
			}
		},
	},
	"switching": {
		question: "A8: how much does cut-through routing buy over store-and-forward (the technique the paper's model deliberately avoids)?",
		algos: func() []sched.Algorithm {
			oi := sched.NewOIHSA().Opts
			oiSF := oi
			oiSF.Switching = sched.StoreAndForward
			bb := sched.NewBBSA().Opts
			bbSF := bb
			bbSF.Switching = sched.StoreAndForward
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/cut-through", oi),
				sched.NewCustom("OIHSA/store-forward", oiSF),
				sched.NewCustom("BBSA/cut-through", bb),
				sched.NewCustom("BBSA/store-forward", bbSF),
			}
		},
	},
	"hopdelay": {
		question: "A7: how sensitive are the results to the per-hop switching delay the paper neglects (§2.2)?",
		algos: func() []sched.Algorithm {
			base := sched.NewOIHSA().Opts
			small, large := base, base
			small.HopDelay = 1
			large.HopDelay = 20
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/delay-0", base),
				sched.NewCustom("OIHSA/delay-1", small),
				sched.NewCustom("OIHSA/delay-20", large),
			}
		},
	},
	"commstart": {
		question: "A6: paper's at-ready communication start vs eager per-source start (extension), on the OIHSA and BBSA stacks",
		algos: func() []sched.Algorithm {
			oi := sched.NewOIHSA().Opts
			oiEager := oi
			oiEager.CommStart = sched.CommAtSourceFinish
			bb := sched.NewBBSA().Opts
			bbEager := bb
			bbEager.CommStart = sched.CommAtSourceFinish
			return []sched.Algorithm{
				sched.NewCustom("OIHSA/ready", oi),
				sched.NewCustom("OIHSA/eager", oiEager),
				sched.NewCustom("BBSA/ready", bb),
				sched.NewCustom("BBSA/eager", bbEager),
			}
		},
	},
}

// Ablation runs one of the predefined ablations by key; see
// AblationNames for the available keys.
func Ablation(key string, cfg Config) (*AblationResult, error) {
	spec, ok := ablations[key]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown ablation %q (have %s)", key, strings.Join(AblationNames(), ", "))
	}
	return RunVariants(key, spec.question, cfg, spec.algos())
}

// WriteTable renders the ablation as an aligned text table.
func (r *AblationResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "ablation %s\n%s\n", r.Name, r.Question); err != nil {
		return err
	}
	ref := r.Algorithms[0]
	for _, name := range r.Algorithms {
		line := fmt.Sprintf("%-22s mean makespan %12.1f", name, r.MeanMakespan[name])
		if name != ref {
			imp := r.Improvement[name]
			line += fmt.Sprintf("   vs %s: %+6.1f%% ±%.1f", ref, imp.Mean, imp.CI95())
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(%d instances)\n", r.Instances)
	return err
}
