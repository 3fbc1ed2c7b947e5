package baseline

import (
	"reflect"
	"testing"

	"wsync/internal/core"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// refRoundRobinStep is RoundRobin.step as first written: two 64-bit
// divisions per round, (age+uid)%F for the channel and age/F for the
// frame, and the message built whole. It is the reference the one-division
// step must match.
func refRoundRobinStep(rr *RoundRobin, local uint64, m *msg.Message) (int32, bool) {
	rr.age = local
	rr.out.Tick()
	f := int32(1 + (rr.age+rr.uid)%uint64(rr.f))
	if rr.adopted {
		return f, false
	}
	if !rr.committed && rr.age > uint64(2*SelfCommitFrames*rr.f) {
		rr.committed = true
		rr.out.Adopt(rr.age)
	}
	frame := (rr.age / uint64(rr.f)) & 1
	sendFrame := rr.uid & 1
	if frame == sendFrame {
		round := rr.age
		if rr.committed {
			round = rr.out.Value()
		}
		*m = msg.Message{
			Kind:   msg.KindLeader,
			TS:     msg.Timestamp{Age: rr.age, UID: rr.uid},
			Round:  round,
			Scheme: rr.uid,
		}
		return f, true
	}
	return f, false
}

// TestRoundRobinStepMatchesFormula checks the one-division step against
// the reference formula: for F in {1, 2, 3, 7, 128}, UIDs from 1 up to the
// largest UIDSpread·n² can draw, and ages on both sides of every frame
// edge (including ages near 2^40 and the self-commit threshold), the two
// produce identical channels, transmit flags, messages (written over a
// stale slot) and outputs, with and without an adoption partway through. Both constructors must cache
// uid mod F.
func TestRoundRobinStepMatchesFormula(t *testing.T) {
	const n = 64
	maxUID := uint64(core.UIDSpread) * n * n
	for _, f := range []int{1, 2, 3, 7, 128} {
		r := rng.New(uint64(f))
		if rr := NewRoundRobin(n, f, r); rr.uidMod != rr.uid%uint64(f) {
			t.Fatalf("F=%d: NewRoundRobin cached uid mod F = %d, want %d", f, rr.uidMod, rr.uid%uint64(f))
		}
		arena := NewRoundRobinArena(n, f, 1)
		if rr := arena.NewAgent(0, 1, r).(*RoundRobin); rr.uidMod != rr.uid%uint64(f) {
			t.Fatalf("F=%d: arena cached uid mod F = %d, want %d", f, rr.uidMod, rr.uid%uint64(f))
		}

		fr := uint64(f)
		ages := []uint64{1}
		for k := uint64(1); k <= 2*SelfCommitFrames+3; k++ {
			for _, a := range []uint64{k*fr - 1, k * fr, k*fr + 1} {
				if a > ages[len(ages)-1] {
					ages = append(ages, a)
				}
			}
		}
		for _, base := range []uint64{1 << 40, 1<<40 + fr} {
			edge := base - base%fr
			for _, a := range []uint64{edge - 1, edge, edge + 1} {
				if a > ages[len(ages)-1] {
					ages = append(ages, a)
				}
			}
		}

		uids := []uint64{1, 2, 3, fr - 1, fr, fr + 1, 2*fr + 1, maxUID / 2, maxUID - 1, maxUID}
		for _, uid := range uids {
			if uid < 1 || uid > maxUID {
				continue
			}
			for _, adoptAt := range []int{-1, len(ages) / 3} {
				got := &RoundRobin{f: f, uid: uid, uidMod: uid % fr}
				want := &RoundRobin{f: f, uid: uid}
				// Both message slots start stale, as engine slots do: the
				// in-place write must clear every field it does not set.
				stale := msg.Message{Kind: msg.KindData, Special: true, Epoch: 9, Payload: []byte{1}}
				gm, wm := stale, stale
				for j, age := range ages {
					gf, gtx := got.step(age, &gm)
					wf, wtx := refRoundRobinStep(want, age, &wm)
					if gf != wf || gtx != wtx {
						t.Fatalf("F=%d uid=%d age=%d: step = (%d, %v), reference (%d, %v)", f, uid, age, gf, gtx, wf, wtx)
					}
					if !reflect.DeepEqual(gm, wm) {
						t.Fatalf("F=%d uid=%d age=%d: message %+v, reference %+v", f, uid, age, gm, wm)
					}
					if j == adoptAt {
						leader := msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: age + 1, UID: 1}, Round: 77}
						got.Deliver(leader)
						want.Deliver(leader)
					}
					if got.Output() != want.Output() {
						t.Fatalf("F=%d uid=%d age=%d: output %+v, reference %+v", f, uid, age, got.Output(), want.Output())
					}
				}
			}
		}
	}
}
