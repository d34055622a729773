package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/progen"
)

// traceDigestWant pins the observable behaviour of RunIn: the SHA-256 of
// every trace (Blocks, Stores, Steps, error) over the eight-benchmark suite
// plus the callhot and calldeep presets, each function under the
// verifier's default differential seeds. It was computed with the
// map-backed register file the dense one replaced; a change to the
// interpreter's state representation must not move it.
const traceDigestWant = "9eff203747098494926bd60820db81e1b308eaef247dde91a36c9fe4e44d7c34"

// traceDigestSeeds mirrors verify's defaultSeeds, the seeds every verified
// compile's SEM check runs.
var traceDigestSeeds = []uint64{1, 7, 42, 1998}

func TestRunInTraceDigest(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"callhot", "calldeep"} {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("preset %s not registered", name)
		}
		prog, err := progen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	h := sha256.New()
	runs := 0
	for _, pg := range progs {
		prog, err := ir.NewProgram(pg.Funcs)
		if err != nil {
			t.Fatalf("%s: %v", pg.Name, err)
		}
		for _, fn := range prog.Funcs {
			for _, seed := range traceDigestSeeds {
				tr, err := RunIn(prog, fn, NewOracle(seed), Config{})
				writeTrace(h, fn.Name, seed, tr, err)
				runs++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != traceDigestWant {
		t.Fatalf("trace digest over %d runs = %s, want %s", runs, got, traceDigestWant)
	}
}

func writeTrace(h hash.Hash, name string, seed uint64, tr *Trace, err error) {
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(name))
	num(seed)
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	num(uint64(tr.Steps))
	num(uint64(len(tr.Blocks)))
	for _, b := range tr.Blocks {
		num(uint64(b))
	}
	num(uint64(len(tr.Stores)))
	for _, s := range tr.Stores {
		num(uint64(s.Addr))
		num(uint64(s.Value))
	}
}
