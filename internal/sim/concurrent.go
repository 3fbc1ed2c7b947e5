package sim

import "sync"

// workerCmd starts one barrier-separated half of a round on a worker:
// activation, Step and Output, or (deliver set) Deliver and Output for
// the nodes that received.
type workerCmd struct {
	round   uint64
	deliver bool
}

// workerPool is the concurrent form of the round core: worker w owns the
// nodes i with i % stride == w and runs their activation, Step, Deliver,
// and Output calls, while everything with cross-node extent — the graph
// hook, the adversary, medium resolution, observers — stays on the
// coordinating goroutine between the two barriers.
type workerPool struct {
	cmds []chan workerCmd
	done chan struct{}
	wg   sync.WaitGroup
}

// RunConcurrent executes the simulation with node agents distributed over
// worker goroutines (cfg.Workers of them; 0 means one per node, the
// goroutine-per-agent mapping). The execution is deterministic and produces
// exactly the same Result as Run for the same Config: agents only ever
// touch per-node state, and medium resolution happens on the coordinating
// goroutine between two barriers. Cohort batch-stepping does not apply
// (workers step per node); the two dispatches are bit-identical.
//
// cfg.NewAgent may be invoked from worker goroutines, concurrently for
// distinct node IDs.
func RunConcurrent(cfg *Config) (*Result, error) { return countNodeRounds(run(cfg, nil, nil, true)) }

// startWorkers switches the engine to the concurrent path and returns the
// function that stops the workers.
func (e *engine) startWorkers() (stop func()) {
	stride := e.cfg.Workers
	if stride <= 0 || stride > e.n {
		stride = e.n
	}
	p := &workerPool{
		cmds: make([]chan workerCmd, stride),
		done: make(chan struct{}, stride),
	}
	for w := range p.cmds {
		p.cmds[w] = make(chan workerCmd)
		p.wg.Add(1)
		go e.work(p, w, stride)
	}
	e.workers = p
	return func() {
		for _, c := range p.cmds {
			close(c)
		}
		p.wg.Wait()
	}
}

// work is worker w's loop. All slices are indexed per node, so writes are
// disjoint across workers; the channel operations order them against the
// coordinator's reads.
func (e *engine) work(p *workerPool, w, stride int) {
	defer p.wg.Done()
	for cmd := range p.cmds[w] {
		for i := w; i < e.n; i += stride {
			if cmd.deliver {
				if e.hasPending[i] {
					a := e.agents[i]
					a.Deliver(e.pending[i])
					e.outs[i] = a.Output()
				}
				continue
			}
			if !e.active[i] {
				if e.activation[i] != cmd.round {
					continue
				}
				e.active[i] = true
				e.agents[i] = e.cfg.NewAgent(NodeID(i), cmd.round, &e.agentRNG[i])
			}
			e.probeWeight(i)
			e.stepAgent(i, cmd.round)
		}
		p.done <- struct{}{}
	}
}

// barrier runs one phase on every worker and waits for all of them.
func (p *workerPool) barrier(cmd workerCmd) {
	for _, c := range p.cmds {
		c <- cmd
	}
	for range p.cmds {
		<-p.done
	}
}
