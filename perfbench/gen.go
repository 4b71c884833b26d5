package main

import (
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// accounts is the size of the bank every workload runs against:
// acct/k0 … acct/k4095.
const accounts = 4096

// zipfS is the skew of hot-transfer's key draws.
const zipfS = 1.2

// Operation kinds of the generated request stream.
const (
	opDeposit  = iota // +1 to account a
	opTransfer        // move amt from account a to account b
	opRead            // snapshot read of account a
)

// op is one pre-generated request. The stream of ops, the initial balances
// and the open-loop arrival times are pure functions of the workload seed,
// so two builds of the program receive identical requests.
type op struct {
	kind uint8
	amt  uint8
	a, b uint16
}

// key names account i.
func key(i int) string { return "acct/k" + strconv.Itoa(i) }

// rngFor derives an independent generator for one stream of a seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// initialBalances returns the seeded opening balance of every account. The
// balances differ per account, so a deposit landing on the wrong account
// breaks the per-account balance sequence.
func initialBalances(seed uint64) []int64 {
	r := rngFor(seed, 1)
	out := make([]int64, accounts)
	for i := range out {
		out[i] = 1_000_000 + r.Int64N(1_000_000)
	}
	return out
}

// genOps pre-generates n requests of workload w.
func genOps(w *workload, seed uint64, n int) []op {
	r := rngFor(seed, 2)
	ops := make([]op, n)
	if !w.transfers {
		for i := range ops {
			ops[i] = op{kind: opDeposit, a: uint16(r.IntN(accounts))}
		}
		return ops
	}
	z := rand.NewZipf(r, zipfS, 1, accounts-1)
	for i := range ops {
		a := uint16(z.Uint64())
		if r.IntN(100) >= 80 {
			ops[i] = op{kind: opRead, a: a}
			continue
		}
		b := uint16(z.Uint64())
		for b == a {
			b = uint16(z.Uint64())
		}
		ops[i] = op{kind: opTransfer, a: a, b: b, amt: uint8(1 + r.IntN(10))}
	}
	return ops
}

// genArrivals returns Poisson arrival offsets at rate req/s over d.
func genArrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := rngFor(seed, 3)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
