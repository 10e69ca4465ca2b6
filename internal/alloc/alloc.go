// Package alloc models HeMem's allocation interception layer (§3.2): in
// the real system, libHeMem is LD_PRELOADed and intercepts mmap and C
// library allocation calls via libsyscall_intercept, learning the size and
// growth of every heap range. Large ranges are managed; small ones are
// forwarded to the kernel (and thereby stay in DRAM); and a range that
// grows through many small allocations is adopted once its cumulative size
// crosses the management threshold (1 GB).
//
// Here the Interceptor plays libHeMem's interception role against the
// simulated machine: workloads allocate through it instead of calling
// machine.AS.Map directly, and it notifies the manager when a growing
// arena crosses the threshold.
package alloc

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// GrowthManager is implemented by managers that can adopt a region after
// allocation time (core.HeMem.Manage).
type GrowthManager interface {
	Manage(r *vm.Region)
}

// Interceptor is the mmap/malloc interception layer.
type Interceptor struct {
	m *machine.Machine
	// Threshold is the management threshold (paper: 1 GB).
	Threshold int64

	mmaps  int64
	small  int64
	adopts int64
}

// New returns an interceptor over m with the paper's 1 GB threshold.
func New(m *machine.Machine) *Interceptor {
	return &Interceptor{m: m, Threshold: 1 * sim.GB}
}

// Mmap models an intercepted anonymous mmap: the region is created and
// faulted in (placement decided by the active manager, which sees its size
// — large regions are managed, small ones forwarded to the kernel).
func (i *Interceptor) Mmap(name string, size int64) *vm.Region {
	i.mmaps++
	if size < i.Threshold {
		i.small++
	}
	r := i.m.AS.Map(name, size)
	i.m.Warm()
	return r
}

// Arena is a heap range that grows through small allocations — the
// paper's example of query state or application buffers that may turn out
// to be large after all. Once cumulative growth crosses the threshold the
// arena's regions are handed to the manager.
type Arena struct {
	i    *Interceptor
	name string

	regions   []*vm.Region
	allocated int64
	managed   bool
	chunks    int

	// pages is the set Pages returns, covering the first covered
	// chunks; nil until the first call.
	pages   *vm.PageSet
	covered int
}

// NewArena creates an empty growing arena.
func (i *Interceptor) NewArena(name string) *Arena {
	return &Arena{i: i, name: name}
}

// Grow extends the arena by size bytes (one or more small mmap chunks).
// Crossing the interceptor threshold adopts every chunk — past and future
// — into management.
func (a *Arena) Grow(size int64) *vm.Region {
	a.chunks++
	r := a.i.m.AS.Map(fmt.Sprintf("%s#%d", a.name, a.chunks), size)
	a.regions = append(a.regions, r)
	a.allocated += size
	a.i.m.Warm()
	if !a.managed && a.allocated >= a.i.Threshold {
		a.managed = true
		a.i.adopts++
		if gm, ok := a.i.m.Manager().(GrowthManager); ok {
			for _, reg := range a.regions {
				gm.Manage(reg)
			}
		}
	} else if a.managed {
		if gm, ok := a.i.m.Manager().(GrowthManager); ok {
			gm.Manage(r)
		}
	}
	return r
}

// Managed reports whether the arena has been adopted.
func (a *Arena) Managed() bool { return a.managed }

// Regions returns the arena's chunks.
func (a *Arena) Regions() []*vm.Region { return a.regions }

// Pages returns the arena's one PageSet, over every arena page (for
// building workload traffic over a grown arena). Each call adds the
// pages of the chunks grown since the last one to the same set.
func (a *Arena) Pages() *vm.PageSet {
	if a.pages == nil {
		a.pages = a.i.m.AS.NewPageSet(a.name, nil)
	}
	for _, r := range a.regions[a.covered:] {
		for i, n := 0, r.NumPages(); i < n; i++ {
			a.pages.Add(r.PageID(i))
		}
	}
	a.covered = len(a.regions)
	return a.pages
}

// Stats returns (total mmaps, small mmaps forwarded to the kernel, arenas
// adopted into management).
func (i *Interceptor) Stats() (mmaps, small, adopts int64) {
	return i.mmaps, i.small, i.adopts
}
