package main

import (
	"fmt"
	"sort"
)

// verify checks a segment's outputs against the requests that produced
// them, then the final balances and the deployment's own oracle.
//
// Deposits: for each account the returned balances are exactly
// init+1 … init+n for its n committed deposits, and its final balance is
// init+n — a lost or duplicated effect breaks the sequence. Transfers: the
// total balance is conserved, no balance goes negative, and each account
// ends at its opening balance plus its committed deltas. A request that
// failed may or may not have taken effect, so the accounts it touched are
// only held to the bounds it leaves open.
func verify(w *workload, init []int64, s *segment, d deployment) error {
	returned := make([][]int64, accounts)
	delta := make([]int64, accounts)
	unsure := make([]int64, accounts) // failed deposits per account
	unsureT := make([]bool, accounts) // touched by a failed transfer
	for _, r := range s.recs {
		o := s.ops[r.i]
		switch {
		case r.st == stRefused:
			continue // never sent
		case r.st != stOK && o.kind == opDeposit:
			unsure[o.a]++
			continue
		case r.st != stOK && o.kind == opTransfer:
			unsureT[o.a], unsureT[o.b] = true, true
			continue
		case r.st != stOK:
			continue
		}
		switch o.kind {
		case opDeposit:
			returned[o.a] = append(returned[o.a], r.out.v1)
			delta[o.a]++
		case opTransfer:
			if r.out.v1 < 0 || r.out.v2 < 0 {
				return fmt.Errorf("request %d: transfer left a negative balance (%d, %d)", r.i, r.out.v1, r.out.v2)
			}
			delta[o.a] -= int64(o.amt)
			delta[o.b] += int64(o.amt)
		case opRead:
			if r.out.v1 < 0 {
				return fmt.Errorf("request %d: read a negative balance %d", r.i, r.out.v1)
			}
		}
	}
	for a, bals := range returned {
		sort.Slice(bals, func(i, j int) bool { return bals[i] < bals[j] })
		for k, b := range bals {
			if unsure[a] == 0 && b != init[a]+int64(k)+1 {
				return fmt.Errorf("account k%d: deposit balances %v do not run %d..%d", a, brief(bals), init[a]+1, init[a]+int64(len(bals)))
			}
			if b <= init[a] || b > init[a]+int64(len(bals))+unsure[a] || (k > 0 && b == bals[k-1]) {
				return fmt.Errorf("account k%d: deposit balance %d repeated or out of range", a, b)
			}
		}
	}
	final, err := d.balances()
	if err != nil {
		return err
	}
	var total, want int64
	for a, v := range final {
		total += v
		want += init[a]
		exp := init[a] + delta[a]
		switch {
		case v < 0:
			return fmt.Errorf("account k%d: final balance %d is negative", a, v)
		case unsureT[a]:
		case v < exp || v > exp+unsure[a]:
			return fmt.Errorf("account k%d: final balance %d, want %d (+ up to %d unresolved)", a, v, exp, unsure[a])
		}
	}
	if w.transfers && total != want {
		return fmt.Errorf("total balance %d, want %d: transfers did not conserve money", total, want)
	}
	return d.check()
}

func brief(xs []int64) []int64 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
