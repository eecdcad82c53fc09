package sched

import (
	"fmt"
	"strings"
)

// algorithms is the one table of algorithm names: each entry's first
// name is the canonical one (its Name()), the rest are aliases. Lookup
// ignores case.
var algorithms = []struct {
	names []string
	build func() Algorithm
}{
	{[]string{"BA"}, func() Algorithm { return NewBA() }},
	{[]string{"BA-EFT", "BASinnen"}, func() Algorithm { return NewBASinnen() }},
	{[]string{"OIHSA"}, func() Algorithm { return NewOIHSA() }},
	{[]string{"BBSA"}, func() Algorithm { return NewBBSA() }},
	{[]string{"Classic"}, func() Algorithm { return NewClassic() }},
	{[]string{"Classic+Replay", "classic-replay", "replay"}, func() Algorithm { return NewClassicReplay() }},
}

// AlgorithmNames lists the canonical algorithm names ByName accepts,
// in table order.
func AlgorithmNames() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.names[0]
	}
	return out
}

// ByName returns a fresh scheduler for a canonical algorithm name or
// alias, ignoring case. An unknown name is an error that lists the
// canonical names.
func ByName(name string) (Algorithm, error) {
	for _, a := range algorithms {
		for _, n := range a.names {
			if strings.EqualFold(n, name) {
				return a.build(), nil
			}
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q (valid: %s)", name, strings.Join(AlgorithmNames(), ", "))
}
