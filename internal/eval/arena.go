package eval

import (
	"treegion/internal/ddg"
	"treegion/internal/sched"
)

// Arena is the compile scratch: the DDG builder's dense tables and the list
// scheduler's working set. Every compile owns one; a pipeline worker reuses
// its arena across every function it compiles. The buffers grow to the
// largest function the arena has seen and stay there, so a worker chewing
// through a chunk of functions allocates the scratch once.
//
// An Arena must not be shared between concurrent compiles.
type Arena struct {
	ddg   ddg.Scratch
	sched sched.Scratch
}

// NewArena returns an empty arena; buffers are grown on first use.
func NewArena() *Arena { return &Arena{} }
