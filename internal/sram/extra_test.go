package sram

import (
	"errors"
	"reflect"
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
)

func TestByteAccessors(t *testing.T) {
	a := mustNew(t, testSpec(101))
	if _, err := a.ByteAt(0); err != ErrUnpowered {
		t.Errorf("ByteAt unpowered: %v", err)
	}
	if err := a.SetByteAt(0, 1); err != ErrUnpowered {
		t.Errorf("SetByteAt unpowered: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.SetByteAt(5, 0xC3); err != nil {
		t.Fatal(err)
	}
	b, err := a.ByteAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xC3 {
		t.Errorf("byte = %#x", b)
	}
	if _, err := a.ByteAt(-1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := a.ByteAt(a.Bytes()); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := a.SetByteAt(a.Bytes(), 0); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestSpecAccessor(t *testing.T) {
	spec := testSpec(102)
	a := mustNew(t, spec)
	if got := a.Spec(); got.Seed != spec.Seed || got.Rows != spec.Rows {
		t.Errorf("Spec() = %+v", got)
	}
}

func TestCaptureVotesConsistentWithMajority(t *testing.T) {
	a := mustNew(t, testSpec(103))
	votes, err := a.CaptureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(votes) != a.Cells() {
		t.Fatalf("votes length = %d", len(votes))
	}
	for i, v := range votes {
		if v > 5 {
			t.Fatalf("cell %d has %d votes of 5", i, v)
		}
	}
	// Vote counts must track the bias: strongly positive-bias cells read
	// 1 every time.
	for i := 0; i < a.Cells(); i++ {
		if a.Bias(i) > 20 && votes[i] != 5 {
			t.Fatalf("cell %d: bias %v but %d/5 votes", i, a.Bias(i), votes[i])
		}
		if a.Bias(i) < -20 && votes[i] != 0 {
			t.Fatalf("cell %d: bias %v but %d/5 votes", i, a.Bias(i), votes[i])
		}
	}
	if _, err := a.CaptureVotes(0, 25); err == nil {
		t.Error("zero captures accepted")
	}
}

func TestOperateRandomValidation(t *testing.T) {
	a := mustNew(t, testSpec(104))
	w := rng.NewWorkloadWriter(1, 0)
	cond := analog.Conditions{VoltageV: 1.2, TempC: 25}
	if err := a.OperateRandom(w, cond, 1, 1); err != ErrUnpowered {
		t.Errorf("unpowered operate: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.OperateRandom(w, cond, 1, 0); err == nil {
		t.Error("zero epoch accepted")
	}
	if err := a.OperateRandom(w, cond, 0, 1); err != nil {
		t.Errorf("zero duration should be a no-op: %v", err)
	}
	// Partial final epoch: 1.5h in 1h epochs.
	if err := a.OperateRandom(w, cond, 1.5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestStressWithPatternErrors(t *testing.T) {
	a := mustNew(t, testSpec(105))
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	if err := a.StressWithPattern(make([]byte, a.Bytes()), cond, 1); err != ErrUnpowered {
		t.Errorf("unpowered: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.StressWithPattern(make([]byte, 3), cond, 1); err == nil {
		t.Error("short pattern accepted")
	}
}

func TestStateSnapshotRoundTripInPackage(t *testing.T) {
	a := mustNew(t, testSpec(106))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(0x5A); err != nil {
		t.Fatal(err)
	}
	if err := a.Stress(analog.Conditions{VoltageV: 3.3, TempC: 85}, 2); err != nil {
		t.Fatal(err)
	}
	snap := a.StateSnapshot()

	b := mustNew(t, testSpec(106))
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if !b.Powered() {
		t.Error("powered flag not restored")
	}
	data, err := b.Read()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x5A {
		t.Error("contents not restored")
	}
	// Aging state equality: identical per-cell decision variables.
	for i := 0; i < a.Cells(); i += 97 {
		if a.Bias(i) != b.Bias(i) {
			t.Fatalf("cell %d bias diverged: %v vs %v", i, a.Bias(i), b.Bias(i))
		}
	}
	// Mutating the snapshot must not affect the restored array (deep copy).
	snap.Data[0] = 0xFF
	d2, _ := b.Read()
	if d2[0] == 0xFF && data[0] != 0xFF {
		t.Error("RestoreState aliased the snapshot buffers")
	}
}

func TestRestoreStateSeedMismatchInPackage(t *testing.T) {
	a := mustNew(t, testSpec(107))
	b := mustNew(t, testSpec(108))
	if err := b.RestoreState(a.StateSnapshot()); err == nil {
		t.Fatal("foreign seed accepted")
	}
}

// TestPackedSnapshotMatchesStateSnapshot: the packed form carries the
// same state as StateSnapshot, an array restored from it is identical
// to one restored from the slice form, and a blob of the wrong length
// is rejected as ErrStateMismatch before anything is copied.
func TestPackedSnapshotMatchesStateSnapshot(t *testing.T) {
	a := mustNew(t, testSpec(109))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(0xC3); err != nil {
		t.Fatal(err)
	}
	if err := a.Stress(analog.Conditions{VoltageV: 3.3, TempC: 85}, 3); err != nil {
		t.Fatal(err)
	}
	head, blob := a.PackedSnapshot()
	if len(blob) != PoolsBytes(a.Cells()) || head.S0Perm != nil || head.S1Slow != nil {
		t.Fatalf("packed snapshot: %d-byte blob, pool slices %v/%v", len(blob), head.S0Perm != nil, head.S1Slow != nil)
	}
	want := mustNew(t, testSpec(109))
	if err := want.RestoreState(a.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := mustNew(t, testSpec(109))
	if err := got.RestorePacked(head, blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.StateSnapshot(), want.StateSnapshot()) {
		t.Fatal("packed restore differs from slice restore")
	}
	for _, n := range []int{0, len(blob) - 1, len(blob) + 4} {
		short := make([]byte, n)
		copy(short, blob)
		fresh := mustNew(t, testSpec(109))
		if err := fresh.RestorePacked(head, short); !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("%d-byte blob: %v, want ErrStateMismatch", n, err)
		}
		if fresh.Powered() {
			t.Fatalf("%d-byte blob: rejected restore still adopted the snapshot", n)
		}
	}
}
