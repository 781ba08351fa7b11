package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"

	"invisiblebits/internal/ecc"
	"invisiblebits/internal/stegocrypt"
)

// DecodeArena owns every piece of scratch the post-capture decode tail
// needs — payload and message buffers, confidence/erasure planes, the
// CTR keystream, the compiled ECC pipeline, and the digest verifier —
// so a receiver decoding a stream of devices against one record shape
// allocates nothing in steady state. Set Options.Arena to opt a decode
// path in; DecodeVotes is the arena's native entry point.
//
// An arena is NOT safe for concurrent use: batch decoders keep one per
// worker. Message slices returned from arena-backed decodes are
// arena-owned and valid only until the arena's next use — copy them if
// they must outlive the next decode.
type DecodeArena struct {
	payload []byte
	msg     []byte
	votes   []uint16 // adaptive-ladder vote accumulator
	burst   []uint16 // adaptive-ladder per-burst scratch
	conf    []float64
	erased  []bool

	// Per-vote-value confidence table: confTab[v] = 1 − v/total, the
	// exact expression payloadConfidences computes per cell, so table
	// lookups are bit-identical to the scalar float path.
	confTab      []float64
	confTabTotal int

	// Integer erasure band for (total, deadZone): vote counts in
	// [bandLo, bandHi] are erasures. Derived by evaluating the exact
	// float predicate at every representable count, so the integer
	// compare can never disagree with the scalar mask.
	bandLo, bandHi int
	bandTotal      int
	bandDead       float64
	bandValid      bool

	// CTR keystream cache, keyed by (key, deviceID).
	ks      []byte
	ksKey   stegocrypt.Key
	ksDev   string
	ksValid bool

	// Compiled pipeline for the last codec seen, with its wire name
	// (Name() on a composite stack concatenates per call).
	pipe      *ecc.Pipeline
	pipeCodec ecc.Codec
	pipeName  string

	// Digest scratch: a reusable keyed HMAC, its sum/hex buffers, and
	// a byte-slice staging area for string writes.
	mac      hash.Hash
	macKey   stegocrypt.Key
	macValid bool
	sumBuf   [sha256.Size]byte
	hexBuf   [2 * sha256.Size]byte
	strBuf   []byte
}

// NewDecodeArena returns an empty arena; buffers grow on first use and
// are reused thereafter.
func NewDecodeArena() *DecodeArena { return &DecodeArena{} }

func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func (a *DecodeArena) payloadBuf(n int) []byte {
	a.payload = growBytes(a.payload, n)
	return a.payload
}

func (a *DecodeArena) msgBuf(n int) []byte {
	a.msg = growBytes(a.msg, n)
	return a.msg
}

func (a *DecodeArena) votesBuf(n int) []uint16 {
	if cap(a.votes) < n {
		a.votes = make([]uint16, n)
	}
	return a.votes[:n]
}

func (a *DecodeArena) burstBuf(n int) []uint16 {
	if cap(a.burst) < n {
		a.burst = make([]uint16, n)
	}
	return a.burst[:n]
}

// pipelineFor returns the compiled pipeline for codec, reusing the
// cached one when the codec is unchanged. The equality probe is guarded
// against codecs whose dynamic type is not comparable (they just
// recompile every time).
func (a *DecodeArena) pipelineFor(c ecc.Codec) *ecc.Pipeline {
	if a.pipe != nil && sameCodec(a.pipeCodec, c) {
		return a.pipe
	}
	a.pipe = ecc.NewPipeline(c)
	a.pipeCodec = c
	a.pipeName = c.Name()
	return a.pipe
}

func sameCodec(x, y ecc.Codec) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return x == y
}

// keystream returns (and caches) the CTR keystream for (key, deviceID),
// at least n bytes of it.
func (a *DecodeArena) keystream(key stegocrypt.Key, deviceID string, n int) ([]byte, error) {
	if a.ksValid && a.ksKey == key && a.ksDev == deviceID && len(a.ks) >= n {
		return a.ks[:n], nil
	}
	ks, err := stegocrypt.StreamXOR(key, deviceID, make([]byte, n))
	if err != nil {
		return nil, err
	}
	a.ks, a.ksKey, a.ksDev, a.ksValid = ks, key, deviceID, true
	return ks, nil
}

// decryptInPlace reverses the encryption layer of an inverted payload
// in place — the arena twin of decryptPayload, XORing the cached
// keystream instead of re-deriving it per call.
func (a *DecodeArena) decryptInPlace(payload []byte, rec *Record, opts Options) error {
	if !rec.Encrypted {
		return nil
	}
	if opts.Key == nil {
		return errors.New("core: record is encrypted but no key supplied")
	}
	ks, err := a.keystream(*opts.Key, rec.DeviceID, len(payload))
	if err != nil {
		return fmt.Errorf("core: decrypt: %w", err)
	}
	subtle.XORBytes(payload, payload, ks)
	return nil
}

// payloadFromVotesInto hard-decides vote counts into dst, 8 cells per
// output byte, branchless: payload bit = ¬(power-on majority), i.e. set
// iff 2·votes < total iff votes < ⌈total/2⌉ (the subtract-and-shift
// extracts exactly that compare). Bit-identical to payloadFromVotes.
func payloadFromVotesInto(dst []byte, votes []uint16, total int) {
	t := uint32(total+1) / 2
	for i := range dst {
		v := votes[i*8 : i*8+8 : i*8+8]
		b := byte((uint32(v[0]) - t) >> 31)
		b |= byte((uint32(v[1])-t)>>31) << 1
		b |= byte((uint32(v[2])-t)>>31) << 2
		b |= byte((uint32(v[3])-t)>>31) << 3
		b |= byte((uint32(v[4])-t)>>31) << 4
		b |= byte((uint32(v[5])-t)>>31) << 5
		b |= byte((uint32(v[6])-t)>>31) << 6
		b |= byte((uint32(v[7])-t)>>31) << 7
		dst[i] = b
	}
}

// erasureBounds converts the float dead-zone predicate
// |votes − total/2| ≤ deadZone·total into inclusive integer vote
// bounds by evaluating the exact predicate at every count 0..total.
// The predicate is V-shaped in the count, so the satisfying set is a
// contiguous run; an empty run yields lo > hi.
func erasureBounds(total int, deadZone float64) (lo, hi int) {
	half := float64(total) / 2
	band := deadZone * float64(total)
	lo, hi = 1, 0
	for v := 0; v <= total; v++ {
		d := float64(v) - half
		if d < 0 {
			d = -d
		}
		if d <= band {
			if lo > hi {
				lo = v
			}
			hi = v
		}
	}
	return lo, hi
}

// erasureMaskInto is the arena twin of erasureMask: the float dead-zone
// compare collapses to one cached integer range check per cell.
func (a *DecodeArena) erasureMaskInto(votes []uint16, total, payloadBits int, deadZone float64) []bool {
	if !a.bandValid || a.bandTotal != total || a.bandDead != deadZone {
		a.bandLo, a.bandHi = erasureBounds(total, deadZone)
		a.bandTotal, a.bandDead, a.bandValid = total, deadZone, true
	}
	if cap(a.erased) < payloadBits {
		a.erased = make([]bool, payloadBits)
	}
	mask := a.erased[:payloadBits]
	lo, hi := uint16(a.bandLo), uint16(a.bandHi)
	if a.bandLo > a.bandHi {
		for i := range mask {
			mask[i] = false
		}
		return mask
	}
	for i := range mask {
		v := votes[i]
		mask[i] = v >= lo && v <= hi
	}
	return mask
}

// confidences is the arena twin of payloadConfidences: the per-cell
// 1 − votes/total expression becomes a per-vote-value table lookup
// (bit-identical floats — the table entries are computed with the very
// same expression), and the keystream flip reuses the cached stream.
func (a *DecodeArena) confidences(votes []uint16, total int, rec *Record, opts Options) ([]float64, error) {
	payloadBits := rec.PayloadBytes * 8
	if payloadBits > len(votes) {
		return nil, fmt.Errorf("core: record claims %d payload bits but SRAM has %d cells",
			payloadBits, len(votes))
	}
	if a.confTabTotal != total || a.confTab == nil {
		if cap(a.confTab) < total+1 {
			a.confTab = make([]float64, total+1)
		}
		a.confTab = a.confTab[:total+1]
		invN := 1 / float64(total)
		for v := range a.confTab {
			a.confTab[v] = 1 - float64(v)*invN
		}
		a.confTabTotal = total
	}
	if cap(a.conf) < payloadBits {
		a.conf = make([]float64, payloadBits)
	}
	conf := a.conf[:payloadBits]
	tab := a.confTab
	for i := range conf {
		conf[i] = tab[votes[i]]
	}
	if rec.Encrypted {
		if opts.Key == nil {
			return nil, errors.New("core: record is encrypted but no key supplied")
		}
		ks, err := a.keystream(*opts.Key, rec.DeviceID, rec.PayloadBytes)
		if err != nil {
			return nil, fmt.Errorf("core: keystream: %w", err)
		}
		for i := range conf {
			if ks[i/8]&(1<<(i%8)) != 0 {
				conf[i] = 1 - conf[i]
			}
		}
	}
	return conf, nil
}

// Package-level byte views of the digest domain constants, so the
// alloc-free verifier never converts strings per call.
var (
	digestDomainBytes = []byte(digestDomain)
	digestZeroSep     = []byte{0}
)

// verifyMessage is the arena twin of Record.VerifyMessage: identical
// accept/reject behavior, no per-call allocation. The CRC path formats
// the checksum into scratch and compares; the HMAC path reuses one
// keyed MAC across calls and compares hex in constant time.
func (a *DecodeArena) verifyMessage(rec *Record, msg []byte, key *stegocrypt.Key) error {
	if rec.Digest == "" {
		return ErrNoDigest
	}
	switch rec.DigestAlgo {
	case DigestCRC32:
		if !crcDigestEqual(crc32.ChecksumIEEE(msg), rec.Digest) {
			return ErrDigestMismatch
		}
	case DigestHMACSHA256:
		if key == nil {
			return ErrDigestNeedsKey
		}
		if !a.macValid || a.macKey != *key {
			a.mac = hmac.New(sha256.New, key[:])
			a.macKey, a.macValid = *key, true
		} else {
			a.mac.Reset()
		}
		a.mac.Write(digestDomainBytes)
		a.mac.Write(digestZeroSep)
		a.strBuf = append(a.strBuf[:0], rec.DeviceID...)
		a.mac.Write(a.strBuf)
		a.mac.Write(digestZeroSep)
		a.mac.Write(msg)
		sum := a.mac.Sum(a.sumBuf[:0])
		hex.Encode(a.hexBuf[:], sum)
		if len(rec.Digest) != len(a.hexBuf) {
			return ErrDigestMismatch
		}
		var diff byte
		for i := range a.hexBuf {
			diff |= a.hexBuf[i] ^ rec.Digest[i]
		}
		if diff != 0 {
			return ErrDigestMismatch
		}
	default:
		return fmt.Errorf("core: unknown digest algorithm %q", rec.DigestAlgo)
	}
	return nil
}

// crcDigestEqual reports whether digest is exactly the %08x rendering
// of want — the same accept set as formatting and comparing strings,
// without the format allocation.
func crcDigestEqual(want uint32, digest string) bool {
	if len(digest) != 8 {
		return false
	}
	const hexdigits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		if digest[i] != hexdigits[want&0xF] {
			return false
		}
		want >>= 4
	}
	return true
}

// DecodeVotes runs the full post-capture decode tail — hard-decide,
// invert, decrypt, ECC-decode, digest-verify — from accumulated vote
// counts (total captures) to plaintext, entirely within the arena: warm
// calls allocate nothing. The returned message is arena-owned scratch.
// Records without a digest skip verification (there is nothing to
// check); digest failures return ErrDigestMismatch.
func (a *DecodeArena) DecodeVotes(rec *Record, votes []uint16, total int, opts Options) ([]byte, error) {
	if rec == nil {
		return nil, errors.New("core: nil record")
	}
	codec := opts.codec()
	pipe := a.pipelineFor(codec)
	if a.pipeName != rec.CodecName {
		return nil, fmt.Errorf("core: codec %q does not match record's %q", a.pipeName, rec.CodecName)
	}
	codedLen, err := recordCodedLen(rec, codec)
	if err != nil {
		return nil, err
	}
	if rec.PayloadBytes*8 > len(votes) {
		return nil, fmt.Errorf("core: record claims %d payload bits but SRAM has %d cells",
			rec.PayloadBytes*8, len(votes))
	}
	payload := a.payloadBuf(rec.PayloadBytes)
	payloadFromVotesInto(payload, votes, total)
	if err := a.decryptInPlace(payload, rec, opts); err != nil {
		return nil, err
	}
	msg := a.msgBuf(rec.MessageBytes)
	if err := pipe.DecodeInto(msg, payload[:codedLen], rec.MessageBytes); err != nil {
		return nil, fmt.Errorf("core: ecc decode: %w", err)
	}
	if rec.HasDigest() {
		if err := a.verifyMessage(rec, msg, opts.Key); err != nil {
			return nil, err
		}
	}
	return msg, nil
}

// DecodeVotes is the package-level convenience: it decodes accumulated
// vote counts through Options.Arena when set, or a throwaway arena
// otherwise, and returns a message the caller owns either way (the
// arena-owned scratch is copied out).
func DecodeVotes(rec *Record, votes []uint16, total int, opts Options) ([]byte, error) {
	a := opts.Arena
	if a == nil {
		a = NewDecodeArena()
	}
	msg, err := a.DecodeVotes(rec, votes, total, opts)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(msg))
	copy(out, msg)
	return out, nil
}

// DecodeVotesScalar is the decode tail's reference oracle: the
// allocate-per-stage chain the arena replaced — per-bit hard decision,
// decrypt, ecc.DecodeScalar, VerifyMessage. DecodeVotes must return
// byte-identical plaintext; the core tests and cmd/ibbench's decode
// gate compare against it.
func DecodeVotesScalar(rec *Record, votes []uint16, total int, opts Options) ([]byte, error) {
	codec := opts.codec()
	codedLen, err := recordCodedLen(rec, codec)
	if err != nil {
		return nil, err
	}
	payload, err := decryptPayload(payloadFromVotes(votes, total, rec.PayloadBytes), rec, opts)
	if err != nil {
		return nil, err
	}
	msg, err := ecc.DecodeScalar(codec, payload[:codedLen], rec.MessageBytes)
	if err == nil && rec.HasDigest() {
		err = rec.VerifyMessage(msg, opts.Key)
	}
	if err != nil {
		return nil, err
	}
	return msg, nil
}
