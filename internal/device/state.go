package device

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/storage"
)

// ErrTruncatedImage marks a device image whose byte stream ended before
// the serialized state was complete — the signature of a torn write or
// an interrupted copy. Check with errors.Is; a truncated image is not a
// version problem and not corruption of a whole stream, it is simply
// *missing its tail*, and callers (campaign resume in particular) treat
// it as "this checkpoint never durably existed".
var ErrTruncatedImage = errors.New("device: image truncated")

// ErrCorruptImage marks a device image file whose sha256 seal footer no
// longer matches its contents — the bytes changed at rest. Unlike
// ErrTruncatedImage (a clean missing tail) this is positive evidence of
// corruption; callers must treat the whole file as untrustworthy. Check
// with errors.Is; it also matches ioatomic.ErrSealMismatch.
var ErrCorruptImage = fmt.Errorf("device: image corrupt: %w", ioatomic.ErrSealMismatch)

// imageVersion guards the on-disk format. Version 2 added the refresh
// maintenance ledger; version 3 records the SRAM noise-plane version
// (sram.State.NoiseGen); version 4 carries the six aging pools as one
// raw little-endian float32 blob (image.Pools) instead of six gob
// float32 slices, which gob writes as byte-reversed varints one value
// at a time. Older images still load: a missing NoiseGen decodes as
// zero, which RestoreState maps to Box–Muller — the only sampler that
// existed when those images were written — so v1/v2 archives keep
// replaying bit-identical captures under the v2 engine. Save writes
// only the current version; the gob-float decode of v1–v3 pools is
// kept for archived images.
const imageVersion = 4

// image is the gob-serialized form of a device: enough to reconstruct
// the silicon (model + serial regenerate the fingerprint) plus the
// mutable aging/digital state. This is what lets the cmd tools hand a
// simulated device from the encoding party to the receiving party as a
// single file.
type image struct {
	Version   int
	ModelName string
	Serial    string
	SRAMBytes int // instantiated size (may be a sample of the model size)
	// SRAM is the array's mutable state. Since version 4 its pool
	// slices are empty and Pools carries them (sram.PackedSnapshot).
	SRAM  sram.State
	Pools []byte
	// FlashData is the digital Flash contents (the firmware travels with
	// the chip). Flash *analog* state (wear, Vt levels) is not part of
	// the image — the steganographic channel under study is the SRAM.
	FlashData []byte
	// RefreshLog is the maintenance ledger (since version 2). Absent in
	// version-1 images.
	RefreshLog []RefreshEvent
}

// Save serializes the device to w. The CPU is not part of the image —
// firmware is reloaded by whoever receives the device, exactly as in the
// paper's workflow.
func (d *Device) Save(w io.Writer) error {
	state, pools := d.SRAM.PackedSnapshot()
	img := image{
		Version:    imageVersion,
		ModelName:  d.Model.Name,
		Serial:     d.Serial,
		SRAMBytes:  d.SRAM.Bytes(),
		SRAM:       state,
		Pools:      pools,
		RefreshLog: d.RefreshLog(),
	}
	if d.Flash != nil {
		data, err := d.Flash.Read(0, d.Flash.Bytes())
		if err != nil {
			return fmt.Errorf("device: save flash: %w", err)
		}
		img.FlashData = data
	}
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("device: save: %w", err)
	}
	return nil
}

// SaveFile writes the device image to path atomically and sealed: the
// previous image (if any) is replaced only after the new bytes are
// durable, so a crash mid-save can never leave a torn image under the
// final name, and a sha256 footer (ioatomic.Seal) lets every later load
// prove the disk returned the bytes that were stored. The payload is
// exactly the Save(w) stream; readers skip the footer because gob
// decodes exactly one value and ignores trailing bytes.
func (d *Device) SaveFile(path string) error {
	return d.SaveFileFS(nil, path)
}

// SaveFileFS is SaveFile over an explicit filesystem seam.
func (d *Device) SaveFileFS(fsys storage.FS, path string) error {
	return ioatomic.WriteToSealed(fsys, path, 0o644, d.Save)
}

// LoadFile reconstructs a device from an image file written by SaveFile
// (or any complete Save stream on disk). Sealed images are verified
// against their sha256 footer (failure → ErrCorruptImage); pre-footer
// images load as before.
func LoadFile(path string) (*Device, error) {
	return LoadFileFS(nil, path)
}

// LoadFileFS is LoadFile over an explicit filesystem seam.
func LoadFileFS(fsys storage.FS, path string) (*Device, error) {
	payload, _, err := ioatomic.ReadFileSealed(fsys, path)
	if err != nil {
		if errors.Is(err, ioatomic.ErrSealMismatch) {
			return nil, fmt.Errorf("%w: %s", ErrCorruptImage, path)
		}
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("device: load: %w", err)
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	return Load(bytes.NewReader(payload))
}

// Load reconstructs a device from an image produced by Save.
func Load(r io.Reader) (*Device, error) {
	var img image
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("device: load: %w", ErrTruncatedImage)
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	if img.Version < 1 || img.Version > imageVersion {
		return nil, fmt.Errorf("device: image version %d unsupported", img.Version)
	}
	model, err := ByName(img.ModelName)
	if err != nil {
		return nil, err
	}
	var opts []Option
	if img.SRAMBytes < model.SRAMBytes {
		opts = append(opts, WithSRAMLimit(img.SRAMBytes))
	}
	d, err := New(model, img.Serial, opts...)
	if err != nil {
		return nil, err
	}
	if img.Version >= 4 {
		err = d.SRAM.RestorePacked(img.SRAM, img.Pools)
	} else {
		err = d.SRAM.RestoreState(img.SRAM)
	}
	if err != nil {
		return nil, fmt.Errorf("device: load: %w", err)
	}
	d.refreshLog = append(d.refreshLog, img.RefreshLog...)
	if d.Flash != nil && img.FlashData != nil {
		if len(img.FlashData) != d.Flash.Bytes() {
			return nil, fmt.Errorf("device: image flash is %d bytes, device has %d",
				len(img.FlashData), d.Flash.Bytes())
		}
		// A fresh array is fully erased, so programming reproduces the
		// digital contents exactly (NOR 1→0 transitions only).
		if _, err := d.Flash.Program(0, img.FlashData); err != nil {
			return nil, err
		}
	}
	return d, nil
}
