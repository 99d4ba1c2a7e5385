package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/ds/registry"
	"repro/internal/workload"
)

// Params carries the knobs every experiment reads: the seed, the
// reduced-scale switch, and the throughput-family sweep knobs. A zero
// knob selects the experiment's own default.
type Params struct {
	Seed uint64
	// Short runs each experiment at its reduced CI smoke scale.
	Short bool
	// K is the churn length of the stalled-reader experiments (matrix,
	// space, structures).
	K int
	// Ops (per thread or client) and KeyRange size the throughput family
	// (throughput, michael, service).
	Ops      int
	KeyRange int
	// Structure is the throughput sweep's set structure; Workload and Mix
	// name the key distribution and op-mix schedule of the throughput
	// family (internal/workload registries).
	Structure string
	Workload  string
	Mix       string
}

// pick resolves a knob: v when set, else the full or short default.
func (p Params) pick(v, full, short int) int {
	switch {
	case v > 0:
		return v
	case p.Short:
		return short
	}
	return full
}

// Validate rejects unknown structure, workload and schedule names before
// any experiment runs, so a typo cannot surface after a long run.
func (p Params) Validate() error {
	if p.Workload != "" {
		if _, err := workload.NewDist(p.Workload, 2); err != nil {
			return err
		}
	}
	if p.Mix != "" {
		if _, err := workload.NewSchedule(p.Mix, MixBalanced); err != nil {
			return err
		}
	}
	if p.Structure != "" {
		info, err := registry.Get(p.Structure)
		if err != nil {
			return err
		}
		if info.Kind != registry.KindSet {
			return fmt.Errorf("bench: throughput runs on set structures, %s is a %v", p.Structure, info.Kind)
		}
	}
	return nil
}

// Host describes the machine an artifact was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Artifact is the one machine-readable envelope every BENCH_*.json file
// carries: which experiment, on what host, under what configuration, the
// measured rows, and the named acceptance gates. Successive runs form a
// trajectory tooling can diff, and CI reads the gates by name.
type Artifact struct {
	Experiment string          `json:"experiment"`
	Host       Host            `json:"host"`
	Config     any             `json:"config"`
	Rows       any             `json:"rows"`
	Gates      map[string]bool `json:"gates"`
}

// WriteArtifact emits one experiment's measurement as an indented JSON
// envelope, stamping the current host.
func WriteArtifact(w io.Writer, experiment string, config, rows any, gates map[string]bool) error {
	if gates == nil {
		gates = map[string]bool{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Artifact{
		Experiment: experiment,
		Host:       Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Config:     config,
		Rows:       rows,
		Gates:      gates,
	})
}

// ReadArtifact parses an envelope written by WriteArtifact. config and
// rows, when non-nil, are pointers the envelope's fields decode into;
// nil leaves the generic JSON value in the returned Artifact.
func ReadArtifact(r io.Reader, config, rows any) (Artifact, error) {
	a := Artifact{Config: config, Rows: rows}
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Artifact{}, fmt.Errorf("bench: malformed benchmark artifact: %w", err)
	}
	return a, nil
}

// Experiment is one registered experiment: what erabench runs under
// -exp Name.
type Experiment struct {
	Name  string
	Title string
	// Gates lists, sorted, the acceptance booleans Run reports; a run
	// whose gate set differs is a harness bug and fails.
	Gates []string
	// Run measures the experiment and returns its resolved
	// configuration, its rows, and its gates.
	Run func(p Params) (config, rows any, gates map[string]bool, err error)
	// Table renders Run's configuration and rows for the terminal.
	Table func(w io.Writer, config, rows any)
	// Trace, when set, renders Run's rows as a Chrome trace-event file
	// written beside the envelope as BENCH_<name>_trace.json.
	Trace func(w io.Writer, rows any) error
}

// Experiments returns every registered experiment, sorted by name.
func Experiments() []Experiment {
	out := slices.Clone(experiments)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExperimentNames returns every registered experiment name, sorted.
func ExperimentNames() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// LookupExperiment returns the named experiment.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, ExperimentNames())
}

// RunExperiment runs e, renders its table and gates to w, and — when dir
// is non-empty — writes its BENCH_<name>.json envelope (plus the trace
// sidecar, if any) into dir. It fails when Run fails, when Run's gate
// set differs from e.Gates, or when any gate is false: that one rule is
// every experiment's acceptance check.
func RunExperiment(w io.Writer, e Experiment, p Params, dir string) error {
	config, rows, gates, err := e.Run(p)
	if err != nil {
		return err
	}
	e.Table(w, config, rows)
	names := make([]string, 0, len(gates))
	for name := range gates {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed []string
	for _, name := range names {
		fmt.Fprintf(w, "gate %s: %v\n", name, gates[name])
		if !gates[name] {
			failed = append(failed, name)
		}
	}
	if dir != "" {
		if err := writeFile(filepath.Join(dir, "BENCH_"+e.Name+".json"), w, func(f io.Writer) error {
			return WriteArtifact(f, e.Name, config, rows, gates)
		}); err != nil {
			return err
		}
		if e.Trace != nil {
			if err := writeFile(filepath.Join(dir, "BENCH_"+e.Name+"_trace.json"), w, func(f io.Writer) error {
				return e.Trace(f, rows)
			}); err != nil {
				return err
			}
		}
	}
	if !slices.Equal(names, e.Gates) {
		return fmt.Errorf("bench: %s reported gates %v, declares %v", e.Name, names, e.Gates)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: %s failed gates: %s", e.Name, strings.Join(failed, ", "))
	}
	return nil
}

// writeFile creates path, fills it with emit, and logs it to w.
func writeFile(path string, w io.Writer, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return err
}
