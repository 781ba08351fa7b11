package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/cliutil"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/rig"
)

// imageBaselines probes every live slot's durable final image the way
// a receiving party would see it — device.LoadFile, a clean rig — in
// slot order, which is the order CampaignStatus.Baselines lists them.
func imageBaselines(t *testing.T, root, id string) []float64 {
	t.Helper()
	cdir := filepath.Join(root, campaignsDir, id)
	payload, _, err := ioatomic.ReadFileSealed(nil, filepath.Join(cdir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res campaign.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatalf("campaign %s result: %v", id, err)
	}
	var out []float64
	for _, img := range res.Images {
		if img == "" {
			continue
		}
		d, err := device.LoadFile(filepath.Join(cdir, img))
		if err != nil {
			t.Fatal(err)
		}
		probe, err := rig.New(d).ProbeHealth(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, probe.MeanMargin)
	}
	return out
}

// spanningMessage returns a message that puts payload on every one of
// carriers MSP430G2553 boards (segments fill carriers in order, each up
// to its capacity).
func spanningMessage(t *testing.T, carriers int) []byte {
	t.Helper()
	codec, err := cliutil.ParseCodec("paper")
	if err != nil {
		t.Fatal(err)
	}
	per := core.MaxMessageBytes(512, codec)
	return bytes.Repeat([]byte("spanning "), (carriers-1)*per/9+per/18+1)
}

func assertBaselines(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: baselines %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: baseline %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestBaselinesMatchFinalImages: the baselines a slot worker probes on
// its live carrier are exactly what a probe of the durable final image
// reads, for every slot of a multi-slot campaign.
func TestBaselinesMatchFinalImages(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatal(err)
	}
	sub := miniSub("alice", "bl-3", []string{"bl-0", "bl-1", "bl-2"}, 7.5)
	sub.Spec.Message = spanningMessage(t, 3)
	if err := s.Submit(sub); err != nil {
		t.Fatal(err)
	}
	drainOK(t, s)
	cs, ok := s.Campaign("bl-3")
	if !ok || cs.State != "done" {
		t.Fatalf("campaign: %+v", cs)
	}
	if len(cs.Baselines) != 3 {
		t.Fatalf("%d baselines for a three-carrier campaign", len(cs.Baselines))
	}
	assertBaselines(t, "live probe vs image probe", cs.Baselines, imageBaselines(t, dir, "bl-3"))
}

// TestTerminalCampaignsReleaseCarriers: after Drain no done or failed
// campaign's slot keeps its rig or encode session — finished carriers
// are dropped by the slot worker, and a failed campaign's surviving
// slots are dropped when it retires — so a long-running service holds
// only the carriers of campaigns still in flight.
func TestTerminalCampaignsReleaseCarriers(t *testing.T) {
	dir := t.TempDir()
	injectorFor := func(serial string) faults.Injector {
		if strings.HasPrefix(serial, "dead") {
			return faults.New(faults.Profile{Seed: 11, FailAtHours: 1}, serial)
		}
		return nil
	}
	s, err := New(dir, Config{KeyFor: testKeyFor, InjectorFor: injectorFor})
	if err != nil {
		t.Fatal(err)
	}
	done := miniSub("alice", "rel-done", []string{"rd-0", "rd-1"}, 7.5)
	done.Spec.Message = spanningMessage(t, 2)
	failed := miniSub("bob", "rel-failed", []string{"rf-0", "dead-0"}, 7.5)
	failed.Spec.Message = spanningMessage(t, 2)
	for _, sub := range []Submission{done, failed} {
		if err := s.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, s)
	st := s.Status()
	if st.Done != 1 || st.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want 1/1", st.Done, st.Failed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.camps {
		if !c.terminal() {
			t.Fatalf("campaign %s not terminal after drain", id)
		}
		for i, sl := range c.slots {
			if sl.rig != nil || sl.sess != nil {
				t.Errorf("campaign %s slot %d still holds its carrier (rig %v, session %v)",
					id, i, sl.rig != nil, sl.sess != nil)
			}
		}
	}
}

// TestResumeBetweenEncodedAndDoneKeepsBaselines: a scheduler killed
// after every slot's encoded record but before the campaign's done
// record (the result write is the kill point; the crash matrix also
// visits it) resumes with no live carriers, probes the durable final
// images instead, and reports the uninterrupted run's baselines.
func TestResumeBetweenEncodedAndDoneKeepsBaselines(t *testing.T) {
	base := t.TempDir()
	sub := miniSub("alice", "kd-2", []string{"kd-0", "kd-1"}, 7.5)
	sub.Spec.Message = spanningMessage(t, 2)

	refDir := filepath.Join(base, "ref")
	ref, err := New(refDir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Submit(sub); err != nil {
		t.Fatal(err)
	}
	drainOK(t, ref)
	want, _ := ref.Campaign("kd-2")

	dir := filepath.Join(base, "killed")
	fired := false
	hook := func(point string) error {
		if strings.HasPrefix(point, "result/") {
			fired = true
			return faults.ErrKilled
		}
		return nil
	}
	s, err := New(dir, Config{KeyFor: testKeyFor, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(sub); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err == nil || !fired {
		t.Fatalf("drain = %v (kill fired %v), want a kill at the result write", err, fired)
	}
	if !errors.Is(s.Err(), faults.ErrKilled) {
		t.Fatalf("scheduler died with %v, want ErrKilled", s.Err())
	}

	rs, err := Resume(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatal(err)
	}
	drainOK(t, rs)
	got, ok := rs.Campaign("kd-2")
	if !ok || got.State != "done" {
		t.Fatalf("resumed campaign: %+v", got)
	}
	assertBaselines(t, "resumed vs uninterrupted", got.Baselines, want.Baselines)
	assertBaselines(t, "resumed vs image probe", got.Baselines, imageBaselines(t, dir, "kd-2"))
}
