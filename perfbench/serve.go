package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ib "invisiblebits"
	"invisiblebits/internal/campaign"
	"invisiblebits/internal/core"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

// serve is a tenant's latency: runtime.NumCPU() closed-loop clients
// talk to the scheduler's HTTP service on a loopback listener, journal
// fsync on. One operation submits a 2-board striped ATSAML11E16A
// campaign (16 KiB SRAM, the 16 h Table 4 soak in 2 h slices, a
// checkpoint every 2 slices), polls it until done, reads the status
// once, decodes it and compares the plaintext.
type serve struct {
	seed     uint64
	tfs      *timingFS
	base     string // the set-up's directory
	dir      string // the current service's directory
	services int
	served   atomic.Int64 // campaigns started on the current service
	s        *sched.Scheduler
	srv      *http.Server
	clients  []*serveClient
	keys     sync.Map // campaign ID → *stegocrypt.Key
	retries  atomic.Int64
	ops      atomic.Int64 // operation ids for the trace
	setups   int
}

const (
	serveModel  = "ATSAML11E16A"
	serveBoards = 2
	// serveMsgBytes overflows one board (the paper codec fits 1,337 B
	// in 16 KiB), so the stripe fills the first board and puts the rest
	// on the second.
	serveMsgBytes   = 1600
	serveSoakHours  = 16 // Table 4
	serveSliceHours = 2
	serveCkptEvery  = 2
	servePoll       = 5 * time.Millisecond
	serveSession    = 16
)

type serveClient struct {
	in     *inputs
	tenant string
	api    *sched.Client
	n      int
}

func newServe(seed uint64) *serve { return &serve{seed: seed, tfs: newTimingFS(true)} }

func (w *serve) fs() *timingFS { return w.tfs }

// retryCounter is a slog.Handler that counts the client's retry lines.
type retryCounter struct{ n *atomic.Int64 }

func (h retryCounter) Enabled(context.Context, slog.Level) bool  { return true }
func (h retryCounter) Handle(context.Context, slog.Record) error { h.n.Add(1); return nil }
func (h retryCounter) WithAttrs([]slog.Attr) slog.Handler        { return h }
func (h retryCounter) WithGroup(string) slog.Handler             { return h }

func (w *serve) setup(ctx context.Context, dir string) error {
	w.base = dir
	w.setups++
	logger := slog.New(retryCounter{&w.retries})
	w.clients = nil
	for i := 0; i < runtime.NumCPU(); i++ {
		in := newInputs(w.seed, fmt.Sprintf("serve/%d/%d", w.setups, i))
		w.clients = append(w.clients, &serveClient{
			in:     in,
			tenant: in.tenant(),
			api:    &sched.Client{HTTP: &http.Client{Transport: &http.Transport{}}, Logger: logger},
		})
	}
	if err := w.start(); err != nil {
		return err
	}
	// Warm-up: one campaign per client, so connections and lazy state
	// exist before timing.
	var log opLog
	w.session(ctx, nil, time.Time{}, &log)
	if log.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d campaigns failed: %w", log.failed, log.attempted, log.firstErr)
	}
	return nil
}

// start brings up a fresh service, a scheduler behind an HTTP server
// on a loopback port, in a new directory and points the clients at it.
func (w *serve) start() error {
	w.services++
	w.dir = filepath.Join(w.base, fmt.Sprintf("service-%d", w.services))
	w.served.Store(0)
	s, err := sched.New(w.dir, sched.Config{
		KeyFor: func(_, id string) *stegocrypt.Key {
			if k, ok := w.keys.Load(id); ok {
				return k.(*stegocrypt.Key)
			}
			return nil
		},
		FS: w.tfs,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Stop(context.Background()) //nolint:errcheck // already failing
		return err
	}
	w.s = s
	w.srv = &http.Server{Handler: sched.NewServerWith(s, sched.ServerConfig{}), ReadHeaderTimeout: 10 * time.Second}
	go w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown
	for _, c := range w.clients {
		c.api.BaseURL = "http://" + ln.Addr().String()
	}
	return nil
}

func (w *serve) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx) //nolint:errcheck // best effort; Stop below ends the scheduler
	w.s.Stop(ctx)       //nolint:errcheck // the service is being replaced or the run is over
	w.srv, w.s = nil, nil
	os.RemoveAll(w.dir)
}

// timed runs sessions until the deadline. A service is replaced after
// serveSession campaigns, outside the timed windows: the scheduler
// keeps every finished campaign's carriers in memory, so one service
// for the whole run would grow the process by ~50 MB per campaign and
// tie rss_peak_mb to throughput.
func (w *serve) timed(ctx context.Context, tr *tracer, until time.Time, log *opLog) error {
	w.retries.Store(0)
	for time.Now().Before(until) {
		if w.served.Load() >= serveSession {
			w.teardown()
			if err := w.start(); err != nil {
				return err
			}
		}
		w.session(ctx, tr, until, log)
	}
	return nil
}

// session runs every client's closed loop on the current service until
// the deadline or until the service has taken serveSession campaigns;
// a zero deadline runs exactly one operation per client.
func (w *serve) session(ctx context.Context, tr *tracer, until time.Time, log *opLog) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	log.begin()
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for {
				if !until.IsZero() && (!time.Now().Before(until) || w.served.Add(1) > serveSession) {
					return
				}
				lat, err := w.op(ctx, tr, c)
				mu.Lock()
				log.attempted++
				if err != nil {
					log.fail(err)
				} else {
					log.latMs = append(log.latMs, lat)
				}
				log.mark()
				mu.Unlock()
				if until.IsZero() {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// op runs one campaign end to end and returns its latency in ms.
func (w *serve) op(ctx context.Context, tr *tracer, c *serveClient) (float64, error) {
	c.n++
	id := c.in.campaignID(c.n)
	key := c.in.key()
	w.keys.Store(id, &key)
	spec := campaign.Spec{
		ID:              id,
		Model:           serveModel,
		Serials:         make([]string, serveBoards),
		Message:         c.in.message(serveMsgBytes),
		Codec:           "paper",
		SliceHours:      serveSliceHours,
		CheckpointEvery: serveCkptEvery,
	}
	for b := range spec.Serials {
		spec.Serials[b] = c.in.serial(c.n*serveBoards + b)
	}
	op := int(w.ops.Add(1))
	start := time.Now()
	root := tr.begin(op, 0, "op.serve_campaign")
	dir := filepath.Join(w.dir, "campaigns", id)
	err := w.campaign(ctx, tr, op, root, c, spec, &key, dir)
	tr.end(root)
	lat := float64(time.Since(start).Nanoseconds()) / 1e6
	// The campaign is finished; drop its images so a run's disk
	// footprint stays at a few campaigns.
	os.RemoveAll(dir)
	if err != nil {
		return 0, fmt.Errorf("campaign %s: %w", id, err)
	}
	return lat, nil
}

// campaign submits spec over HTTP, polls it until done, reads the
// status once, decodes the campaign directory and compares.
func (w *serve) campaign(ctx context.Context, tr *tracer, op, root int, c *serveClient, spec campaign.Spec, key *stegocrypt.Key, dir string) error {
	err := tr.call(op, root, "http.submit", func() error {
		return c.api.Submit(ctx, sched.Submission{Tenant: c.tenant, Spec: spec})
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for {
		var cs sched.CampaignStatus
		err := tr.call(op, root, "http.poll", func() (err error) {
			cs, err = c.api.Campaign(ctx, spec.ID)
			return err
		})
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if cs.State == "done" {
			break
		}
		if cs.State != "queued" {
			return fmt.Errorf("ended %s: %s", cs.State, cs.Error)
		}
		time.Sleep(servePoll)
	}
	if err := tr.call(op, root, "http.status", func() error {
		_, err := c.api.Status(ctx)
		return err
	}); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var got []byte
	err = tr.call(op, root, "campaign.DecodeCampaign", func() (err error) {
		got, err = ib.DecodeCampaign(ctx, dir, key)
		return err
	})
	if err == nil && !bytes.Equal(got, spec.Message) {
		err = errors.New("decoded plaintext differs")
	}
	return err
}

func (w *serve) layers(m metricSet, sum map[string]*spanSummary, io [3]classStats, ops int) {
	schedLayers(m, sum, io, ops)
	med := func(name string) float64 {
		if s := sum[name]; s != nil {
			return median(s.DurMs)
		}
		return 0
	}
	m.set("http.submit_ms_p50", "ms", med("http.submit"))
	m.set("http.poll_ms_p50", "ms", med("http.poll"))
	m.set("http.status_ms_p50", "ms", med("http.status"))
	if s := sum["http.poll"]; s != nil {
		m.set("http.polls_per_campaign", "count/op", perOp(float64(s.Count), ops))
	}
	m.set("http.retries", "count/op", perOp(float64(w.retries.Load()), ops))
	st := w.s.Status()
	if st.Passes > 0 && st.Done > 0 {
		m.set("sched.passes", "count/op", float64(st.Passes)/float64(st.Done))
		m.set("sched.slots_per_pass", "count", float64(st.Done*serveBoards*serveSoakHours/serveSliceHours)/float64(st.Passes))
		m.set("sched.chamber_h_per_campaign", "sim_h", st.ChamberHours/float64(st.Done))
		m.set("sched.sim_latency_h_p99", "sim_h", st.LatencyP99)
	}
}

func (w *serve) probe() probeSpec {
	in := newInputs(w.seed, "serve/probe")
	k := in.key()
	return probeSpec{
		model:      serveModel,
		serial:     in.serial(0),
		message:    in.message(ib.MaxMessageBytes(16<<10, ib.PaperCodec())), // the first board's segment
		opts:       core.Options{Codec: ib.PaperCodec(), Key: &k},
		sliceHours: serveSliceHours,
	}
}

func (w *serve) tail() float64 { return 0.75 } // ~50 campaigns in a traced run: too few for p90
