package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

// Equivalence suite for the arena decode tail: every cached/table/
// branchless twin in arena.go is compared against its scalar original
// — the plaintext and every intermediate plane must be bit-identical,
// not merely close.

// TestPayloadFromVotesIntoMatchesScalar: the branchless 8-lane
// hard-decision extract agrees with the scalar comparison for every
// vote value at odd and even capture totals, including the tie count.
func TestPayloadFromVotesIntoMatchesScalar(t *testing.T) {
	src := rng.NewSource(0xa0e0)
	for _, total := range []int{1, 2, 3, 5, 6, 15, 16, 255} {
		// Exhaustive per-value check: one byte per possible count.
		votes := make([]uint16, (total+1+7)/8*8)
		for v := 0; v <= total; v++ {
			votes[v] = uint16(v)
		}
		want := payloadFromVotes(votes, total, len(votes)/8)
		got := make([]byte, len(votes)/8)
		payloadFromVotesInto(got, votes, total)
		if !bytes.Equal(got, want) {
			t.Fatalf("total=%d: exhaustive extract diverges: %x vs %x", total, got, want)
		}
		// Random planes at sizes straddling the unrolled byte loop.
		for _, nBytes := range []int{1, 7, 8, 9, 64, 257} {
			votes := make([]uint16, nBytes*8)
			for i := range votes {
				votes[i] = uint16(src.Intn(total + 1))
			}
			want := payloadFromVotes(votes, total, nBytes)
			got := make([]byte, nBytes)
			payloadFromVotesInto(got, votes, total)
			if !bytes.Equal(got, want) {
				t.Fatalf("total=%d/%dB: extract diverges", total, nBytes)
			}
		}
	}
}

// TestErasureMaskIntoMatchesScalar: the cached integer band reproduces
// the float dead-zone predicate exactly, over totals and dead zones
// including degenerate (0, full-width) bands.
func TestErasureMaskIntoMatchesScalar(t *testing.T) {
	a := NewDecodeArena()
	for _, total := range []int{1, 3, 5, 15, 16, 100} {
		for _, deadZone := range []float64{0, 0.01, 0.1, 1.0 / 7, 0.25, 0.5} {
			votes := make([]uint16, (total+1+7)/8*8)
			for v := 0; v <= total; v++ {
				votes[v] = uint16(v)
			}
			want := erasureMask(votes, total, len(votes), deadZone)
			got := a.erasureMaskInto(votes, total, len(votes), deadZone)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("total=%d dz=%v: mask diverges at count %d", total, deadZone, i)
				}
			}
		}
	}
}

// arenaRecord encodes a message on a fresh rig and returns everything
// the tail-equivalence tests need: the rig, record, options and the
// original message.
func arenaRecord(t *testing.T, serial string, key *stegocrypt.Key) (*Record, []uint16, Options, []byte) {
	t.Helper()
	r := newRig(t, "MSP432P401", serial, 4<<10)
	opts := Options{Codec: paperCodec(t), Key: key}
	msg := make([]byte, 128)
	rng.NewSource(0xa0e1).Bytes(msg)
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	votes, err := r.SampleVotes(DefaultCaptures)
	if err != nil {
		t.Fatal(err)
	}
	return rec, votes, opts, msg
}

// TestArenaDecodeVotesMatchesScalarTail: the arena's fused decode tail
// produces the exact plaintext of the scalar chain, and a warm arena
// decode performs zero heap allocations — the property BENCH_7 gates.
func TestArenaDecodeVotesMatchesScalarTail(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("arena-tail")
	for _, tc := range []struct {
		name string
		key  *stegocrypt.Key
	}{
		{"encrypted-hmac", &key},
		{"plaintext-crc", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, votes, opts, msg := arenaRecord(t, "arena-"+tc.name, tc.key)
			want, err := DecodeVotesScalar(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, msg) {
				t.Fatal("scalar tail failed to recover the message")
			}
			a := NewDecodeArena()
			got, err := a.DecodeVotes(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("arena tail diverges from scalar tail")
			}
			// Package-level convenience copies the message out.
			own, err := DecodeVotes(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(own, want) {
				t.Fatal("package DecodeVotes diverges")
			}
			// Warm steady state: zero allocations.
			if n := testing.AllocsPerRun(50, func() {
				if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, opts); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("warm arena DecodeVotes allocates %.1f objects/op", n)
			}
		})
	}
}

// TestArenaDecodeVotesErrors: the arena tail rejects exactly what the
// scalar chain rejects — codec mismatch, short vote plane, tampered
// digest — with the same sentinel errors.
func TestArenaDecodeVotesErrors(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("arena-err")
	rec, votes, opts, _ := arenaRecord(t, "arena-errs", &key)
	a := NewDecodeArena()

	if _, err := a.DecodeVotes(nil, votes, DefaultCaptures, opts); err == nil {
		t.Error("nil record accepted")
	}
	if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, Options{Key: &key}); err == nil {
		t.Error("codec mismatch accepted")
	}
	if _, err := a.DecodeVotes(rec, votes[:rec.PayloadBytes*8-8], DefaultCaptures, opts); err == nil {
		t.Error("short vote plane accepted")
	}
	bad := *rec
	bad.Digest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := a.DecodeVotes(&bad, votes, DefaultCaptures, opts); err != ErrDigestMismatch {
		t.Errorf("tampered digest: err = %v, want ErrDigestMismatch", err)
	}
	noKey := opts
	noKey.Key = nil
	if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, noKey); err == nil {
		t.Error("encrypted record without key accepted")
	}
}

// TestArenaVerifyMessageMatchesRecord: the alloc-free verifier and
// Record.VerifyMessage accept and reject the same inputs for both
// digest algorithms, including malformed digests.
func TestArenaVerifyMessageMatchesRecord(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("verify-twin")
	otherKey := stegocrypt.KeyFromPassphrase("wrong")
	msg := []byte("the digest twin must agree")
	a := NewDecodeArena()

	for _, algo := range []struct {
		name string
		key  *stegocrypt.Key
	}{
		{"crc32", nil},
		{"hmac", &key},
	} {
		rec := &Record{DeviceID: "dev:verify"}
		rec.DigestAlgo, rec.Digest = computeDigest(msg, rec.DeviceID, algo.key)

		cases := []struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{
			{"accept", msg, algo.key, rec},
			{"wrong-msg", []byte("not the message"), algo.key, rec},
			{"empty-msg", nil, algo.key, rec},
		}
		if algo.key != nil {
			cases = append(cases,
				struct {
					name string
					msg  []byte
					key  *stegocrypt.Key
					rec  *Record
				}{"wrong-key", msg, &otherKey, rec},
				struct {
					name string
					msg  []byte
					key  *stegocrypt.Key
					rec  *Record
				}{"nil-key", msg, nil, rec},
			)
		}
		trunc := *rec
		trunc.Digest = rec.Digest[:len(rec.Digest)-1]
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"truncated-digest", msg, algo.key, &trunc})
		none := *rec
		none.Digest = ""
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"no-digest", msg, algo.key, &none})
		unknown := *rec
		unknown.DigestAlgo = "md5"
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"unknown-algo", msg, algo.key, &unknown})

		for _, tc := range cases {
			want := tc.rec.VerifyMessage(tc.msg, tc.key)
			got := a.verifyMessage(tc.rec, tc.msg, tc.key)
			if (got == nil) != (want == nil) || (got != nil && want != nil && got.Error() != want.Error()) {
				t.Errorf("%s/%s: arena err %v, record err %v", algo.name, tc.name, got, want)
			}
		}
	}
}

// TestArenaConfidencesMatchScalar: the per-vote-value confidence table
// reproduces payloadConfidences bit-for-bit, plain and encrypted.
func TestArenaConfidencesMatchScalar(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("conf-twin")
	src := rng.NewSource(0xa0e2)
	for _, encrypted := range []bool{false, true} {
		rec := &Record{DeviceID: "dev:conf", PayloadBytes: 96, MessageBytes: 8, Encrypted: encrypted}
		opts := Options{}
		if encrypted {
			opts.Key = &key
		}
		total := 15
		votes := make([]uint16, rec.PayloadBytes*8+32) // extra cells beyond the payload
		for i := range votes {
			votes[i] = uint16(src.Intn(total + 1))
		}
		want, err := payloadConfidences(votes, total, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := NewDecodeArena()
		got, err := a.confidences(votes, total, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("encrypted=%v: length %d vs %d", encrypted, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("encrypted=%v: confidence %d diverges: %v vs %v", encrypted, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeContextWithArena: Options.Arena routes DecodeContext through
// the fused tail and still recovers the exact message.
func TestDecodeContextWithArena(t *testing.T) {
	r := newRig(t, "MSP432P401", "ctx-arena", 4<<10)
	key := stegocrypt.KeyFromPassphrase("ctx")
	msg := []byte("arena-backed DecodeContext")
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Arena = NewDecodeArena()
	got, err := DecodeContext(context.Background(), r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recovered %q, want %q", got, msg)
	}
}

// TestDecodeAdaptiveArenaReportIdentical: two identical hostile rigs —
// one decoded plain, one through an arena — must produce byte-identical
// plaintext and deeply equal DecodeReports: the arena may change
// allocation behavior only, never the ladder's decisions.
func TestDecodeAdaptiveArenaReportIdentical(t *testing.T) {
	run := func(withArena bool) ([]byte, *DecodeReport) {
		t.Helper()
		// Same serial ⇒ same device noise, same injector stream: the
		// two runs observe identical captures.
		r, opts, aopts, msg := decayCampaign(t, "arena-ladder")
		rec, err := Encode(r, msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ShelveFor(2 * 365 * 24); err != nil {
			t.Fatal(err)
		}
		if withArena {
			aopts.Options.Arena = NewDecodeArena()
		}
		got, rep, err := DecodeAdaptive(context.Background(), r, rec, aopts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("adaptive decode corrupted the message")
		}
		out := make([]byte, len(got))
		copy(out, got)
		return out, rep
	}
	plainMsg, plainRep := run(false)
	arenaMsg, arenaRep := run(true)
	if !bytes.Equal(plainMsg, arenaMsg) {
		t.Fatal("arena-backed adaptive decode returned different plaintext")
	}
	if !reflect.DeepEqual(plainRep, arenaRep) {
		t.Fatalf("reports diverge:\nplain: %+v\narena: %+v", plainRep, arenaRep)
	}
}
