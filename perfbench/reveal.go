package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	ib "invisiblebits"
	"invisiblebits/internal/core"
)

// reveal is the receiver's read path. Set-up imprints a fleet of
// MSP432P401 carriers (64 KiB SRAM); one caller then runs
// RevealAdaptive round-robin over the fleet and compares every
// plaintext. No device construction, disk or scheduler is on the timed
// path, so the capture kernel, the worker pool and the decode tail do
// almost all the work.
//
// The fleet has no shelved carriers. Shelving carriers until the
// ladder escalates past its first rung was tried and dropped: the
// channel falls off a cliff. Over 100 h shelving steps a carrier goes
// from never escalating to failing the whole ladder, and the step
// differs by serial. Even a 1-capture first rung verified every reveal
// of a soaked carrier. No shelf made reveals escalate while every
// reveal still verified.
type reveal struct {
	seed     uint64
	fleet    []*revealCarrier
	arena    *core.DecodeArena
	next     int
	captures []float64
	rungs    []float64
	escal    int
}

type revealCarrier struct {
	c   *ib.Carrier
	rec *ib.Record
	msg []byte
	key ib.Key
}

const (
	revealModel    = "MSP432P401"
	revealCarriers = 8
	revealMsgBytes = 256
	// revealSoakHours is twice Table 4's 10 h: at 10 h, 1 of 200
	// MSP432P401 carriers with a 256 B message could not be revealed
	// even by the full adaptive ladder.
	revealSoakHours = 20
)

func newReveal(seed uint64) *reveal { return &reveal{seed: seed} }

func (w *reveal) fs() *timingFS { return nil }

func (w *reveal) adaptive(c *revealCarrier) ib.AdaptiveOptions {
	return ib.AdaptiveOptions{Options: ib.Options{Codec: ib.PaperCodec(), Key: &c.key, Arena: w.arena}}
}

func (w *reveal) setup(ctx context.Context, _ string) error {
	in := newInputs(w.seed, "reveal")
	model, err := ib.Model(revealModel)
	if err != nil {
		return err
	}
	w.fleet, w.arena = nil, core.NewDecodeArena()
	for i := 0; i < revealCarriers; i++ {
		d, err := ib.NewDevice(model, in.serial(i))
		if err != nil {
			return err
		}
		rc := &revealCarrier{c: ib.NewCarrier(d), msg: in.message(revealMsgBytes), key: in.key()}
		rc.rec, err = rc.c.Hide(rc.msg, ib.Options{Codec: ib.PaperCodec(), Key: &rc.key, StressHours: revealSoakHours})
		if err != nil {
			return err
		}
		// Warm-up reveals build the lazy capture state before timing.
		for k := 0; k < 3; k++ {
			if err := w.revealOnce(ctx, rc); err != nil {
				return fmt.Errorf("warm-up reveal of %s: %w", in.serial(i), err)
			}
		}
		w.fleet = append(w.fleet, rc)
	}
	return nil
}

func (w *reveal) revealOnce(ctx context.Context, rc *revealCarrier) error {
	got, _, err := rc.c.RevealAdaptiveContext(ctx, rc.rec, w.adaptive(rc))
	if err == nil && !bytes.Equal(got, rc.msg) {
		err = errors.New("revealed plaintext differs")
	}
	return err
}

// teardown drops the fleet and collects it, so the next set-up does
// not hold two fleets at once.
func (w *reveal) teardown() {
	w.fleet = nil
	runtime.GC()
}

func (w *reveal) timed(ctx context.Context, tr *tracer, until time.Time, log *opLog) error {
	w.captures, w.rungs, w.escal = nil, nil, 0
	log.begin()
	op := 0
	for time.Now().Before(until) {
		for range w.fleet {
			rc := w.fleet[w.next%len(w.fleet)]
			w.next++
			op++
			log.attempted++
			t0 := time.Now()
			root := tr.begin(op, 0, "op.reveal")
			var rep *ib.DecodeReport
			var got []byte
			err := tr.call(op, root, "core.RevealAdaptive", func() (err error) {
				got, rep, err = rc.c.RevealAdaptiveContext(ctx, rc.rec, w.adaptive(rc))
				return err
			})
			if err == nil && !bytes.Equal(got, rc.msg) {
				err = errors.New("revealed plaintext differs")
			}
			tr.end(root)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e6
			if rep != nil {
				w.captures = append(w.captures, float64(rep.CapturesSpent))
				w.rungs = append(w.rungs, float64(len(rep.Rungs)))
				if rep.Escalated() {
					w.escal++
				}
			}
			if err != nil {
				log.fail(fmt.Errorf("reveal %d: %w", op, err))
			} else {
				log.latMs = append(log.latMs, lat)
			}
			log.mark()
		}
	}
	fmt.Printf("# reveal: %d reveals, %d escalated\n", len(w.captures), w.escal)
	return nil
}

func (w *reveal) layers(m metricSet, _ map[string]*spanSummary, _ [3]classStats, _ int) {
	m.set("rig.captures_per_reveal", "count", mean(w.captures))
	m.set("core.rungs_per_reveal", "count", mean(w.rungs))
	if n := len(w.captures); n > 0 {
		m.set("core.escalated_frac", "fraction", float64(w.escal)/float64(n))
	}
}

func (w *reveal) probe() probeSpec {
	in := newInputs(w.seed, "reveal/probe")
	k := in.key()
	return probeSpec{
		model:      revealModel,
		serial:     in.serial(0),
		message:    in.message(revealMsgBytes),
		opts:       core.Options{Codec: ib.PaperCodec(), Key: &k, StressHours: revealSoakHours},
		sliceHours: 2.5,
	}
}

func (w *reveal) tail() float64 { return 0.9 } // p99 moved by 26% between runs of the same code
