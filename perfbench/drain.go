package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	ib "invisiblebits"
	"invisiblebits/internal/campaign"
	"invisiblebits/internal/core"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

// drain is an operator's batch: one submitter sends drainBatch
// single-board MSP430G2553 campaigns (paper codec, AES key, a 20 h
// soak in 2.5 h slices, a checkpoint every 2 slices) to a scheduler,
// drains it, then decodes every campaign and compares the plaintexts.
// One operation is one campaign; batches repeat until the deadline.
//
// The batch runs without fsync: the journal with sched.Config.NoSync,
// images and directories through a timingFS that is not durable. About
// 20 fsyncs per campaign against about 50 ms of CPU made the batch rate
// follow the shared disk: a second process writing with fsync cut it by
// 40% while the CPU time per campaign stayed put. serve keeps fsync on,
// where it sits on every campaign's blocking path.
//
// The soak is twice Table 4's 10 h: at 10 h, 6 of 10,000 MSP430
// carriers kept too many stable bit errors for the paper codec to
// correct (with 5 or 15 captures alike), and at 12.5 h some still did,
// which would make failures baseline noise rather than regressions.
type drain struct {
	in    *inputs
	tfs   *timingFS
	dir   string
	batch int
}

const (
	drainModel      = "MSP430G2553"
	drainBatch      = 160
	drainWarmBatch  = 16
	drainMsgBytes   = 32
	drainSoakHours  = 20
	drainSliceHours = 2.5
	drainCkptEvery  = 2
)

// drainSim is a batch's simulated-clock outcome. With the admission
// barrier it is a pure function of the batch size and the scheduler's
// policy, so it must repeat exactly across batches, runs and seeds.
// A batch that differs from drainGolden makes the run incorrect.
type drainSim struct {
	chamberHours float64
	passes       int
	latencyP99   float64
}

func newDrain(seed uint64) *drain {
	return &drain{in: newInputs(seed, "drain"), tfs: newTimingFS(false)}
}

func (d *drain) fs() *timingFS { return d.tfs }

func (d *drain) setup(ctx context.Context, dir string) error {
	d.dir = dir
	var log opLog
	if _, err := d.runBatch(ctx, nil, drainWarmBatch, &log); err != nil {
		return err
	}
	if log.failed > 0 {
		return fmt.Errorf("warm-up batch: %d of %d campaigns failed: %w", log.failed, log.attempted, log.firstErr)
	}
	return nil
}

func (d *drain) teardown() {}

func (d *drain) timed(ctx context.Context, tr *tracer, until time.Time, log *opLog) error {
	log.begin()
	for time.Now().Before(until) {
		sim, err := d.runBatch(ctx, tr, drainBatch, log)
		if err != nil {
			return err
		}
		log.mark()
		if *sim != drainGolden {
			log.fail(fmt.Errorf("simulated statistics %+v differ from the pinned %+v", *sim, drainGolden))
			return nil
		}
	}
	return nil
}

// drainGolden pins the simulated outcome of a drainBatch batch under
// the admission barrier; a change to it is a change of scheduling
// policy, not of speed.
var drainGolden = drainSim{chamberHours: 213, passes: 85, latencyP99: 207.5}

// admissionBarrier makes pass planning independent of goroutine
// timing. The first slot bootstrap (the first pass holds only the first
// campaign) blocks in InjectorFor until every submission is admitted,
// so the second pass plans over the whole queue. It returns nil: rigs
// stay clean.
type admissionBarrier struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newAdmissionBarrier() *admissionBarrier {
	return &admissionBarrier{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *admissionBarrier) injectorFor(string) faults.Injector {
	first := false
	b.once.Do(func() { first = true })
	if first {
		close(b.entered)
	}
	<-b.release
	return nil
}

// runBatch runs one batch of n campaigns in a fresh scheduler
// directory and decodes every campaign. Operation failures go to log;
// an error means the harness itself could not proceed.
func (d *drain) runBatch(ctx context.Context, tr *tracer, n int, log *opLog) (*drainSim, error) {
	d.batch++
	op := d.batch
	root := tr.begin(op, 0, "op.drain_batch")
	defer tr.end(root)
	// The batch directory stays until the run's state is removed, so
	// deleting it is not timed.
	dir := filepath.Join(d.dir, fmt.Sprintf("batch-%d", d.batch))

	subs := make([]sched.Submission, n)
	keys := make(map[string]*stegocrypt.Key, n)
	for i := range subs {
		k := d.in.key()
		subs[i] = sched.Submission{
			Tenant: d.in.tenant(),
			Spec: campaign.Spec{
				ID:              d.in.campaignID(d.batch*100000 + i),
				Model:           drainModel,
				Serials:         []string{d.in.serial(d.batch*100000 + i)},
				Message:         d.in.message(drainMsgBytes),
				Codec:           "paper",
				StressHours:     drainSoakHours,
				SliceHours:      drainSliceHours,
				CheckpointEvery: drainCkptEvery,
			},
		}
		keys[subs[i].Spec.ID] = &k
	}
	barrier := newAdmissionBarrier()
	var s *sched.Scheduler
	err := tr.call(op, root, "sched.New", func() (err error) {
		s, err = sched.New(dir, sched.Config{
			MaxQueued:   n,
			KeyFor:      func(_, id string) *stegocrypt.Key { return keys[id] },
			InjectorFor: barrier.injectorFor,
			FS:          d.tfs,
			NoSync:      true,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	submit := func(sub sched.Submission) error {
		return tr.call(op, root, "sched.Submit", func() error { return s.Submit(sub) })
	}
	if err := submit(subs[0]); err != nil {
		close(barrier.release)
		return nil, err
	}
	<-barrier.entered
	for _, sub := range subs[1:] {
		if err := submit(sub); err != nil {
			close(barrier.release)
			return nil, fmt.Errorf("submit %s: %w", sub.Spec.ID, err)
		}
	}
	close(barrier.release)
	if err := tr.call(op, root, "sched.Drain", func() error { return s.Drain(ctx) }); err != nil {
		return nil, err
	}
	var st sched.Status
	tr.call(op, root, "sched.Status", func() error { st = s.Status(); return nil })

	for _, sub := range subs {
		log.attempted++
		id := sub.Spec.ID
		start := time.Now()
		var got []byte
		err := tr.call(op, root, "campaign.DecodeCampaign", func() (err error) {
			got, err = ib.DecodeCampaign(ctx, filepath.Join(dir, "campaigns", id), keys[id])
			return err
		})
		if err == nil && !bytes.Equal(got, sub.Spec.Message) {
			err = errors.New("decoded plaintext differs")
		}
		if err != nil {
			log.fail(fmt.Errorf("campaign %s: %w", id, err))
			continue
		}
		log.latMs = append(log.latMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	if st.Done != n || st.Failed != 0 {
		log.fail(fmt.Errorf("scheduler finished %d/%d campaigns, %d failed", st.Done, n, st.Failed))
	}
	return &drainSim{chamberHours: st.ChamberHours, passes: st.Passes, latencyP99: st.LatencyP99}, nil
}

func (d *drain) layers(m metricSet, sum map[string]*spanSummary, io [3]classStats, ops int) {
	schedLayers(m, sum, io, ops)
	// Every timed batch matched drainGolden, or the run is incorrect.
	g := drainGolden
	m.set("sched.passes", "count/op", float64(g.passes)/drainBatch)
	m.set("sched.slots_per_pass", "count", drainBatch*(drainSoakHours/drainSliceHours)/float64(g.passes))
	m.set("sched.chamber_h_per_campaign", "sim_h", g.chamberHours/drainBatch)
	m.set("sched.sim_latency_h_p99", "sim_h", g.latencyP99)
}

func (d *drain) probe() probeSpec {
	k := d.in.key()
	return probeSpec{
		model:      drainModel,
		serial:     d.in.serial(999999),
		message:    d.in.message(drainMsgBytes),
		opts:       core.Options{Codec: ib.PaperCodec(), Key: &k, StressHours: drainSoakHours},
		sliceHours: drainSliceHours,
	}
}

// schedLayers adds the per-layer metrics shared by the scheduler
// workloads: scheduler calls, artifact I/O and the journal.
func schedLayers(m metricSet, sum map[string]*spanSummary, io [3]classStats, ops int) {
	med := func(name string) float64 {
		if s := sum[name]; s != nil {
			return median(s.DurMs)
		}
		return 0
	}
	img, j := io[classImage], io[classJournal]
	m.set("ioatomic.image_writes", "count/op", perOp(float64(img.Files), ops))
	m.set("ioatomic.image_mb_written", "MB/op", perOp(float64(img.Bytes)/1e6, ops))
	m.set("ioatomic.write_ms", "ms", medianNs(img.WriteNs))
	m.set("ioatomic.fsync_ms", "ms", medianNs(img.SyncNs))
	m.set("storage.read_mb", "MB/op", perOp(float64(img.ReadB)/1e6, ops))
	m.set("storage.read_ms", "ms", medianNs(img.ReadNs))
	m.set("wal.appends", "count/op", perOp(float64(j.Writes), ops))
	m.set("wal.bytes", "B/op", perOp(float64(j.Bytes), ops))
	m.set("wal.fsyncs", "count/op", perOp(float64(len(j.SyncNs)), ops))
	m.set("wal.fsync_ms_p50", "ms", medianNs(j.SyncNs))
	if ruleHolds(len(j.SyncNs), 0.99) {
		m.set("wal.fsync_ms_p99", "ms", quantileNs(j.SyncNs, 0.99))
	} else {
		m.set("wal.fsync_ms_p99", "ms", 0)
	}
	m.set("sched.submit_ms_p50", "ms", med("sched.Submit"))
	m.set("sched.drain_s", "s", med("sched.Drain")/1e3)
	m.set("sched.status_ms_p50", "ms", med("sched.Status"))
	m.set("campaign.decode_ms", "ms", med("campaign.DecodeCampaign"))
}

func (d *drain) tail() float64 { return 0.9 } // ~900 decodes in a traced run
