package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// The microbenchmark sweeps are pure device-model evaluations — no
// simulation run — but they go through the sweep engine like everything
// else: one cell per row, devices built inside the cell.

// runTab1 prints the technology comparison: the spec constants plus the
// measured large-block streaming bandwidths of the device models.
func runTab1(w io.Writer, o Opts) {
	type techRow struct {
		name                string
		readLat, writeLat   int64
		readGBps, writeGBps float64
		capacity            string
	}
	mkRow := func(d *mem.Device, capacity string) techRow {
		return techRow{
			name:      d.Spec.Name,
			readLat:   d.Spec.ReadLatency,
			writeLat:  d.Spec.WriteLatency,
			readGBps:  sim.BytesPerNsToGBps(d.Throughput(mem.Read, mem.Sequential, 256, 24)),
			writeGBps: sim.BytesPerNsToGBps(d.Throughput(mem.Write, mem.Sequential, 256, 24)),
			capacity:  capacity,
		}
	}
	s := NewSweep("tab1", o)
	s.Cell("dram", func(CellInfo) any { return mkRow(mem.NewDRAM(192*sim.GB), "1x") })
	// 768 GB NVM vs 192 GB DRAM per socket but 8x per module.
	s.Cell("nvm", func(CellInfo) any { return mkRow(mem.NewNVM(768*sim.GB), "8x") })
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "Memory\tR/W Latency (ns)\tR/W GB/s\tCapacity")
	for _, v := range res {
		r := v.(techRow)
		fmt.Fprintf(tw, "%s\t%d / %d\t%.0f / %.1f\t%s\n",
			r.name, r.readLat, r.writeLat, r.readGBps, r.writeGBps, r.capacity)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: DRAM 82ns, 107/80 GB/s; Optane 175/94ns, 32/11.2 GB/s, 8x capacity")
}

// devKinds enumerates the device/kind/pattern combinations of Figures 1
// and 2, in column order.
var devKinds = []struct {
	name string
	nvm  bool
	kind mem.Kind
	pat  mem.Pattern
}{
	{"dram-seq-rd", false, mem.Read, mem.Sequential},
	{"dram-rand-rd", false, mem.Read, mem.Random},
	{"dram-seq-wr", false, mem.Write, mem.Sequential},
	{"dram-rand-wr", false, mem.Write, mem.Random},
	{"nvm-seq-rd", true, mem.Read, mem.Sequential},
	{"nvm-rand-rd", true, mem.Read, mem.Random},
	{"nvm-seq-wr", true, mem.Write, mem.Sequential},
	{"nvm-rand-wr", true, mem.Write, mem.Random},
}

// runFig1 sweeps thread counts at 256 B blocks for all four
// device/pattern combinations on both devices.
func runFig1(w io.Writer, o Opts) {
	counts := []int{1, 2, 4, 8, 12, 16, 20, 24}
	s := NewSweep("fig1", o)
	for _, threads := range counts {
		s.Cell(fmt.Sprintf("threads=%d", threads), func(CellInfo) any {
			dram := mem.NewDRAM(192 * sim.GB)
			nvm := mem.NewNVM(768 * sim.GB)
			vals := make([]float64, len(devKinds))
			for i, k := range devKinds {
				dev := dram
				if k.nvm {
					dev = nvm
				}
				vals[i] = sim.BytesPerNsToGBps(dev.Throughput(k.kind, k.pat, 256, threads))
			}
			return vals
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprint(tw, "threads")
	for _, k := range devKinds {
		fmt.Fprintf(tw, "\t%s", k.name)
	}
	fmt.Fprintln(tw)
	for i, threads := range counts {
		fmt.Fprintf(tw, "%d", threads)
		for _, v := range res[i].([]float64) {
			fmt.Fprintf(tw, "\t%.1f", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "GB/s; paper: NVM write saturates at 4 threads; DRAM rand read 2.7x NVM; NVM seq read +14% over DRAM rand read at scale")
}

// runFig2 sweeps block sizes at 16 threads.
func runFig2(w io.Writer, o Opts) {
	blocks := []int64{64, 256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10}
	s := NewSweep("fig2", o)
	for _, block := range blocks {
		s.Cell(fmt.Sprintf("block=%d", block), func(CellInfo) any {
			dram := mem.NewDRAM(192 * sim.GB)
			nvm := mem.NewNVM(768 * sim.GB)
			var vals []float64
			for _, d := range []*mem.Device{dram, nvm} {
				for _, kind := range []mem.Kind{mem.Read, mem.Write} {
					for _, pat := range []mem.Pattern{mem.Sequential, mem.Random} {
						vals = append(vals, sim.BytesPerNsToGBps(d.Throughput(kind, pat, block, 16)))
					}
				}
			}
			return vals
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "block\tdram-seq-rd\tdram-rand-rd\tdram-seq-wr\tdram-rand-wr\tnvm-seq-rd\tnvm-rand-rd\tnvm-seq-wr\tnvm-rand-wr")
	for i, block := range blocks {
		fmt.Fprintf(tw, "%d", block)
		for _, v := range res[i].([]float64) {
			fmt.Fprintf(tw, "\t%.1f", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "GB/s at 16 threads; paper: NVM seq read saturated regardless of size; small random reads slow on both; seq/rand gap closes with size")
}

// runFig3 prints full-scan times by capacity and page size.
func runFig3(w io.Writer, o Opts) {
	capacities := []int64{1, 16, 64, 256, 1024, 2048, 4096}
	s := NewSweep("fig3", o)
	for _, capGB := range capacities {
		s.Cell(fmt.Sprintf("cap=%dGB", capGB), func(CellInfo) any {
			m := vm.DefaultScanModel()
			c := capGB * sim.GB
			return [3]float64{
				float64(m.ScanTime(c, 4<<10)) / 1e6,
				float64(m.ScanTime(c, 2<<20)) / 1e6,
				float64(m.ScanTime(c, 1<<30)) / 1e6,
			}
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "capacity\t4K pages\t2M pages\t1G pages")
	for i, capGB := range capacities {
		t := res[i].([3]float64)
		fmt.Fprintf(tw, "%dGB\t%.3gms\t%.3gms\t%.3gms\n", capGB, t[0], t[1], t[2])
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: terabytes at base pages take seconds; small capacities fast at any page size")
}
