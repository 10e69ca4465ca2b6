package mem

import (
	"testing"

	"github.com/tieredmem/hemem/internal/vm"
)

// Each built-in tier builds a spec at the requested capacity that
// matches its direct constructor, and TierNone has no row.
func TestBuiltinSpec(t *testing.T) {
	direct := map[vm.TierID]func(int64) Spec{
		vm.TierDRAM: DRAMSpec, vm.TierNVM: NVMSpec, vm.TierDisk: DiskSpec, vm.TierCXL: CXLSpec,
	}
	for tier, want := range direct {
		b, ok := Builtin(tier)
		if !ok {
			t.Fatalf("Builtin(%v) has no row", tier)
		}
		spec := b.Spec(16)
		if spec != want(16) {
			t.Fatalf("Builtin(%v).Spec(16) = %+v, want %+v", tier, spec, want(16))
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%v spec invalid: %v", tier, err)
		}
	}
	if _, ok := Builtin(vm.TierNone); ok {
		t.Fatal("TierNone has a built-in row")
	}
}

// The CXL calibration sits strictly between DRAM and NVM on latency, and
// unlike NVM is read/write symmetric.
func TestCXLCalibration(t *testing.T) {
	cxl, dram, nvm := CXLSpec(1), DRAMSpec(1), NVMSpec(1)
	if !(cxl.ReadLatency > dram.ReadLatency && cxl.ReadLatency < nvm.ReadLatency+100) {
		t.Fatalf("CXL read latency %d out of band (DRAM %d, NVM %d)",
			cxl.ReadLatency, dram.ReadLatency, nvm.ReadLatency)
	}
	if cxl.ReadLatency != cxl.WriteLatency {
		t.Fatalf("CXL latency asymmetric: %d vs %d", cxl.ReadLatency, cxl.WriteLatency)
	}
	if cxl.Peak[Write][Sequential] < nvm.Peak[Write][Sequential]*2 {
		t.Fatal("CXL write bandwidth should far exceed Optane's")
	}
	if cxl.Peak[Read][Sequential] > dram.Peak[Read][Sequential] {
		t.Fatal("CXL link bandwidth should not exceed local DRAM's")
	}
	if cxl.MediaGranularity != 64 {
		t.Fatalf("CXL media granularity = %d, want 64 (plain DRAM media)", cxl.MediaGranularity)
	}
}
