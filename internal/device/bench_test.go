package device

import (
	"path/filepath"
	"testing"

	"invisiblebits/internal/asm"
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

// BenchmarkDeviceLoadFile times restoring a board from a sealed image
// carrying firmware in flash, as checkpoint resume and decode do.
func BenchmarkDeviceLoadFile(b *testing.B) {
	prog, err := asm.Assemble(firmware, FlashBase)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range benchModels {
		m, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		d, err := New(m, "bench-0001")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), name+".img")
		if err := d.SaveFile(path); err != nil {
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
