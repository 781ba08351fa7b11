package main

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"invisiblebits/internal/stegocrypt"
)

// inputs generates a workload's inputs from its seed: serials, tenant
// IDs, messages and keys. The same seed and workload give the same
// inputs; sizes are fixed per workload, so a seed changes only contents.
type inputs struct {
	rng *rand.Rand
	tag string // per-seed serial and campaign prefix
}

func newInputs(seed uint64, workload string) *inputs {
	var salt uint64
	for _, c := range workload {
		salt = salt*131 + uint64(c)
	}
	in := &inputs{rng: rand.New(rand.NewPCG(seed, salt))}
	in.tag = in.token(4)
	return in
}

// token returns n random bytes in hex.
func (in *inputs) token(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(in.rng.Uint32())
	}
	return hex.EncodeToString(b)
}

func (in *inputs) message(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(in.rng.Uint32())
	}
	return b
}

// serial names the i-th carrier of this seed.
func (in *inputs) serial(i int) string { return fmt.Sprintf("%s-%06d", in.tag, i) }

// campaignID names the i-th campaign of this seed.
func (in *inputs) campaignID(i int) string { return fmt.Sprintf("c%s-%06d", in.tag, i) }

func (in *inputs) tenant() string { return "tenant-" + in.token(4) }

func (in *inputs) key() stegocrypt.Key { return stegocrypt.KeyFromPassphrase(in.token(16)) }
