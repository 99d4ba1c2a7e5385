// Package registry enumerates the repository's data-structure
// implementations behind by-name factories, so the applicability harness,
// the benchmarks and the tests can sweep scheme × structure uniformly.
package registry

import (
	"fmt"
	"sort"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/michael"
	"repro/internal/ds/msqueue"
	"repro/internal/ds/nmtree"
	"repro/internal/ds/skiplist"
	"repro/internal/ds/treiber"
	"repro/internal/smr"
)

// Kind is the abstract data type a structure implements.
type Kind uint8

// Structure kinds.
const (
	KindSet Kind = iota
	KindQueue
	KindStack
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindStack:
		return "stack"
	}
	return "set"
}

// MaxPayloadWords is the largest payload-word requirement across all
// structures; arenas sized with it can host any structure.
const MaxPayloadWords = skiplist.PayloadWords

// Info describes one registered structure implementation.
type Info struct {
	// Name is the registry key ("harris", "msqueue", ...).
	Name string
	// Kind is the abstract data type.
	Kind Kind
	// PayloadWords is the minimum arena payload size the structure needs.
	PayloadWords int
	// TraversesRetired reports that searches may traverse logically
	// deleted (and possibly retired) nodes — the property that defeats
	// per-pointer protection schemes (Appendix E of the paper).
	TraversesRetired bool
	// Partitioned reports that searches visit only a hash partition of
	// the key space (the hashmaps): scripted adversaries that assume one
	// key lies on another key's search path cannot target such a
	// structure, so structure sweeps built on those scripts skip it.
	Partitioned bool
	// NewSet/NewQueue/NewStack is non-nil per Kind.
	NewSet   func(s smr.Scheme, opt ds.Options) (ds.Set, error)
	NewQueue func(s smr.Scheme, opt ds.Options) (ds.Queue, error)
	NewStack func(s smr.Scheme, opt ds.Options) (ds.Stack, error)
}

var infos = map[string]Info{
	"harris": {
		Name: "harris", Kind: KindSet, PayloadWords: 2, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return harris.New(s, opt) },
	},
	"michael": {
		Name: "michael", Kind: KindSet, PayloadWords: 2,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return michael.New(s, opt) },
	},
	"skiplist": {
		Name: "skiplist", Kind: KindSet, PayloadWords: skiplist.PayloadWords, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return skiplist.New(s, opt) },
	},
	"hashmap-harris": {
		Name: "hashmap-harris", Kind: KindSet, PayloadWords: 2, TraversesRetired: true, Partitioned: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return hashmap.New(s, opt, "harris") },
	},
	"hashmap-michael": {
		Name: "hashmap-michael", Kind: KindSet, PayloadWords: 2, Partitioned: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return hashmap.New(s, opt, "michael") },
	},
	"nmtree": {
		Name: "nmtree", Kind: KindSet, PayloadWords: nmtree.PayloadWords, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return nmtree.New(s, opt) },
	},
	"msqueue": {
		Name: "msqueue", Kind: KindQueue, PayloadWords: 2,
		NewQueue: func(s smr.Scheme, opt ds.Options) (ds.Queue, error) { return msqueue.New(s, opt) },
	},
	"treiber": {
		Name: "treiber", Kind: KindStack, PayloadWords: 2,
		NewStack: func(s smr.Scheme, opt ds.Options) (ds.Stack, error) { return treiber.New(s, opt) },
	},
}

// aliases maps convenience names to registry entries. "hashmap" selects
// the HP-compatible variant so the widest scheme set applies.
var aliases = map[string]string{
	"hashmap": "hashmap-michael",
}

// Names returns every registered structure name, sorted.
func Names() []string {
	names := make([]string, 0, len(infos))
	for n := range infos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetNames returns the names of the set structures, sorted.
func SetNames() []string {
	var names []string
	for _, n := range Names() {
		if infos[n].Kind == KindSet {
			names = append(names, n)
		}
	}
	return names
}

// TraversalSetNames returns, sorted, the set structures whose searches
// traverse the full key order (not hash-partitioned) and may cross
// retired nodes — the structures the paper's §6 discussion asks about,
// and the ones the scripted stall adversaries can target. Experiment
// sweeps iterate this listing instead of hand-maintained slices so their
// report ordering is stable and new structures join automatically.
func TraversalSetNames() []string {
	var names []string
	for _, n := range SetNames() {
		if in := infos[n]; in.TraversesRetired && !in.Partitioned {
			names = append(names, n)
		}
	}
	return names
}

// Get returns the named structure's Info. Aliases resolve to their
// target entry (the returned Info carries the canonical name).
func Get(name string) (Info, error) {
	if target, ok := aliases[name]; ok {
		name = target
	}
	in, ok := infos[name]
	if !ok {
		return Info{}, fmt.Errorf("registry: unknown structure %q (have %v)", name, Names())
	}
	return in, nil
}

// MustGet is Get for static names.
func MustGet(name string) Info {
	in, err := Get(name)
	if err != nil {
		panic(err)
	}
	return in
}

// Applicable reports whether the named scheme is expected to be applicable
// to the named structure, per the paper's analysis: per-pointer protection
// schemes (HP, IBR, HE) are not applicable to structures whose searches
// traverse retired nodes (Appendix E); everything else is.
func Applicable(scheme string, structure string) bool {
	in, err := Get(structure)
	if err != nil {
		return false
	}
	if !in.TraversesRetired {
		return true
	}
	switch scheme {
	case "hp", "ibr", "he":
		// The protect-and-validate idiom re-reads the *source* pointer;
		// a stable source does not imply the target still lives when
		// traversals cross retired nodes (Appendix E).
		return false
	}
	// rc stays applicable: its pin is on the *target* (increment the
	// count, then validate the target itself), and a held node's link
	// counts pin the rest of the retired run — at the price of
	// non-robustness (the pinned chain is unbounded, see the adversary
	// outcomes).
	return true
}
