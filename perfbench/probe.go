package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/flash"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/sram"
)

// probeSpec is what the layer probe replays: one scheduler slot's
// steps with the workload's model, a serial from its inputs and its
// codec, key and soak schedule.
type probeSpec struct {
	model      string
	serial     string
	message    []byte
	opts       core.Options
	sliceHours float64
}

// probeReps is how many slots the probe replays; layer times are
// medians over them.
const probeReps = 3

// probeCaptures is the burst the probe times: the adaptive ladder's
// first rung.
const probeCaptures = core.DefaultInitialCaptures

// runProbe replays one slot's steps probeReps times under spans named
// after the called function: device construction (and, on the same
// device's specs, the flash and SRAM planes alone), the staged encode,
// an image save and load, and five capture bursts each followed by the
// decode tail. The scheduler does this work internally, where the
// benchmark cannot trace it; the probe measures the same calls
// directly. It returns the size of the saved image in MB.
func runProbe(ctx context.Context, tr *tracer, p probeSpec, dir string) (float64, error) {
	imageMB := 0.0
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return imageMB, err
	}
	model, err := device.ByName(p.model)
	if err != nil {
		return imageMB, err
	}
	for rep := 0; rep < probeReps; rep++ {
		op := -(rep + 1)
		root := tr.begin(op, 0, "probe.slot")
		serial := fmt.Sprintf("%s-probe%d", p.serial, rep)
		var d *device.Device
		err := tr.call(op, root, "device.New", func() (err error) {
			d, err = device.New(model, serial)
			return err
		})
		if err != nil {
			return imageMB, err
		}
		if err := tr.call(op, root, "flash.New", func() error {
			_, err := flash.New(d.Flash.Spec())
			return err
		}); err != nil {
			return imageMB, err
		}
		if err := tr.call(op, root, "sram.New", func() error {
			_, err := sram.New(d.SRAM.Spec())
			return err
		}); err != nil {
			return imageMB, err
		}
		r := rig.New(d)
		var sess *core.EncodeSession
		if err := tr.call(op, root, "core.BeginEncode", func() (err error) {
			sess, err = core.BeginEncode(ctx, r, p.message, p.opts)
			return err
		}); err != nil {
			return imageMB, err
		}
		for sess.RemainingHours() > 0 {
			h := min(p.sliceHours, sess.RemainingHours())
			if err := tr.call(op, root, "core.StressSlice", func() error { return sess.StressSlice(ctx, h) }); err != nil {
				return imageMB, err
			}
		}
		var rec *core.Record
		if err := tr.call(op, root, "core.Finish", func() (err error) {
			rec, err = sess.Finish(ctx)
			return err
		}); err != nil {
			return imageMB, err
		}
		img := filepath.Join(dir, fmt.Sprintf("probe-%d.img", rep))
		if err := d.SaveFile(img); err != nil {
			return imageMB, err
		}
		if st, err := os.Stat(img); err == nil {
			imageMB = float64(st.Size()) / 1e6
		}
		if err := tr.call(op, root, "device.LoadFile", func() error {
			_, err := device.LoadFile(img)
			return err
		}); err != nil {
			return imageMB, err
		}
		votes := make([]uint16, d.SRAM.Cells())
		arena := core.NewDecodeArena()
		for i := 0; i < 5; i++ { // the first burst builds lazy capture state
			if err := tr.call(op, root, "rig.SampleVotesInto", func() error {
				return r.SampleVotesIntoContext(ctx, probeCaptures, votes)
			}); err != nil {
				return imageMB, err
			}
			var msg []byte
			if err := tr.call(op, root, "core.DecodeVotes", func() (err error) {
				msg, err = arena.DecodeVotes(rec, votes, probeCaptures, p.opts)
				return err
			}); err != nil {
				return imageMB, err
			}
			if !bytes.Equal(msg, p.message) {
				return imageMB, fmt.Errorf("probe decode of %s does not match its message", serial)
			}
		}
		tr.end(root)
		if err := os.Remove(img); err != nil {
			return imageMB, err
		}
	}
	return imageMB, nil
}

// probeLayers adds the probe's per-layer metrics.
func probeLayers(m metricSet, sum map[string]*spanSummary, imageMB float64) {
	med := func(name string) float64 {
		if s := sum[name]; s != nil {
			return median(s.DurMs)
		}
		return 0
	}
	m.set("device.new_ms", "ms", med("device.New"))
	m.set("flash.new_ms", "ms", med("flash.New"))
	m.set("sram.new_ms", "ms", med("sram.New"))
	m.set("device.load_ms", "ms", med("device.LoadFile"))
	m.set("device.image_mb", "MB", imageMB)
	m.set("core.begin_encode_ms", "ms", med("core.BeginEncode"))
	m.set("core.stress_slice_ms", "ms", med("core.StressSlice"))
	m.set("core.finish_ms", "ms", med("core.Finish"))
	m.set("rig.capture_ms_per_capture", "ms", med("rig.SampleVotesInto")/probeCaptures)
	m.set("core.decode_tail_ms", "ms", med("core.DecodeVotes"))
}

func medianNs(ns []int64) float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	return median(ms)
}

func quantileNs(ns []int64, q float64) float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	return quantile(ms, q)
}
