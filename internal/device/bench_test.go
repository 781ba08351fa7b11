package device

import (
	"io"
	"path/filepath"
	"testing"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/rng"
)

// benchModels are the smallest and largest boards the scheduler and
// reveal paths build: construction cost scales with SRAM and flash size.
var benchModels = []string{"MSP430G2553", "MSP432P401"}

// BenchmarkDeviceNew times building a board from (model, serial) — the
// per-slot cost every campaign and checkpoint rebuild pays.
func BenchmarkDeviceNew(b *testing.B) {
	for _, name := range benchModels {
		m, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(m, "bench-0001"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCarrier builds a board as a campaign leaves it: firmware in
// flash and a 10 h accelerated imprint of a random pattern, so every
// aging pool holds non-zero values (a fresh board's zero pools are the
// cheapest case for any encoding).
func benchCarrier(b *testing.B, name string) *Device {
	b.Helper()
	m, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(m, "bench-0001")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(firmware, FlashBase)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		b.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		b.Fatal(err)
	}
	pattern := make([]byte, d.SRAM.Bytes())
	rng.NewSource(1).Bytes(pattern)
	if err := d.SRAM.Write(pattern); err != nil {
		b.Fatal(err)
	}
	if err := d.StressBypassed(d.Model.Accelerated(), 10); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDeviceSave times encoding an imprinted board's image — what
// every checkpoint and final image write pays before the bytes reach
// the disk.
func BenchmarkDeviceSave(b *testing.B) {
	for _, name := range benchModels {
		d := benchCarrier(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Save(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceLoadFile times restoring an imprinted board from a
// sealed image, as checkpoint resume and decode do.
func BenchmarkDeviceLoadFile(b *testing.B) {
	for _, name := range benchModels {
		path := filepath.Join(b.TempDir(), name+".img")
		if err := benchCarrier(b, name).SaveFile(path); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
