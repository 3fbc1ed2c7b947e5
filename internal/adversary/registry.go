package adversary

import (
	"fmt"

	"wsync/internal/sim"
)

// New constructs an adversary by name; the CLI tools and the public API use
// it. Recognized names: "none", "fixed" (jams 1..t; also "prefix"),
// "random", "sweep", "bursty", "reactive" and "stalker". The budget t is
// the number of frequencies jammed per round.
func New(name string, f, t int, seed uint64) (sim.Adversary, error) {
	if t < 0 || t >= f {
		return nil, fmt.Errorf("adversary: budget t=%d out of range for F=%d", t, f)
	}
	switch name {
	case "", "none":
		return None{}, nil
	case "fixed", "prefix":
		return NewPrefix(f, t), nil
	case "random":
		return NewRandom(f, t, seed), nil
	case "sweep":
		return NewSweep(f, t, 1), nil
	case "bursty":
		return NewBursty(f, t, 16, 16, seed), nil
	case "reactive":
		return NewReactive(f, t), nil
	case "stalker":
		return NewStalker(f, t), nil
	default:
		return nil, fmt.Errorf("adversary: unknown adversary %q", name)
	}
}

// Names lists the adversaries New recognizes.
func Names() []string {
	return []string{"none", "fixed", "random", "sweep", "bursty", "reactive", "stalker"}
}
