package main

import (
	"encoding/json"
	"os"

	"treegion"
	"treegion/internal/eval"
	"treegion/internal/progen"
)

// pinAll compiles every workload's batch set once and writes each
// function's estimated cycles, by workload, to path. The checked-in
// pins.json was written this way at the commit that added the benchmark;
// every run compares its compiles against it, so a change that moves a
// schedule shows up as failed operations, not as a faster number.
func pinAll(path string) error {
	pins := map[string]map[string]float64{}
	for i := range workloads {
		w := &workloads[i]
		c, err := batchConfig(w.region)
		if err != nil {
			return err
		}
		pins[w.name] = map[string]float64{}
		for _, p := range w.batch {
			pr, _ := progen.PresetByName(p.preset)
			prog, err := progen.Generate(pr)
			if err != nil {
				return err
			}
			profs, err := eval.ProfileProgram(prog)
			if err != nil {
				return err
			}
			r, err := treegion.Compile(bg, prog, profs, c, treegion.WithWorkers(1))
			if err != nil {
				return err
			}
			for _, fi := range p.indices(len(prog.Funcs)) {
				pins[w.name][r.Funcs[fi].Fn.Name] = r.Funcs[fi].Time
			}
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
