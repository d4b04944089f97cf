package spgemm

import (
	"testing"

	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
)

func TestCannonMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		p := p
		t.Run(planName(p), func(t *testing.T) {
			cases := append([]operands{{"random", randomCOO(30, 26, 0.2, int64(p)), randomCOO(26, 34, 0.25, int64(p)+1)}},
				operandCases(30, 26, 34, int64(p))[1:]...)
			for _, oc := range cases {
				t.Run(oc.name, func(t *testing.T) {
					want, _ := sparse.Mul(sparse.FromCOO(oc.a, addF), sparse.FromCOO(oc.b, addF), mulF, addF)
					mach := sim.New(p)
					_, err := mach.Run(func(proc *machine.Proc) {
						s := NewSession(proc)
						a := distmat.FromGlobal(proc.Rank(), oc.a, distmat.DistShard(p), addF)
						b := distmat.FromGlobal(proc.Rank(), oc.b, distmat.DistShard(p), addF)
						c := Cannon(s, a, b, mulF, addF, addF, addF)
						got := distmat.Gather(proc.World(), c, addF)
						if !sparse.Equal(want, got, func(x, y float64) bool { return x == y || abs(x-y) < 1e-9 }) {
							panic("cannon result differs from sequential")
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

func planName(p int) string {
	return "p=" + string(rune('0'+p/10)) + string(rune('0'+p%10))
}

func TestCannonRejectsNonSquare(t *testing.T) {
	mach := sim.New(6)
	_, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		cooA := randomCOO(10, 10, 0.3, 1)
		a := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(6), addF)
		Cannon(s, a, a, mulF, addF, addF, addF)
	})
	if err == nil {
		t.Fatal("non-square processor count must fail")
	}
}

func TestCannonChargesPointToPoint(t *testing.T) {
	p := 9
	cooA := randomCOO(30, 30, 0.3, 5)
	cooB := randomCOO(30, 30, 0.3, 6)
	mach := sim.New(p)
	stats, err := mach.Run(func(proc *machine.Proc) {
		s := NewSession(proc)
		a := distmat.FromGlobal(proc.Rank(), cooA, distmat.DistShard(p), addF)
		b := distmat.FromGlobal(proc.Rank(), cooB, distmat.DistShard(p), addF)
		Cannon(s, a, b, mulF, addF, addF, addF)
	})
	if err != nil {
		t.Fatal(err)
	}
	// √p - 1 = 2 shift rounds, two shifts each, plus redistribution msgs.
	if stats.MaxCost.Msgs < 4 {
		t.Fatalf("expected shift messages on the critical path, got %v", stats.MaxCost)
	}
}

func TestSendRecvMismatchFails(t *testing.T) {
	mach := sim.New(2)
	_, err := mach.Run(func(proc *machine.Proc) {
		// Both ranks address rank 0: rank 1 receives nothing it expects.
		machine.SendRecv(proc.World(), 0, proc.Rank()^1, []int{proc.Rank()})
	})
	if err == nil {
		t.Fatal("mismatched pairing must fail")
	}
}
